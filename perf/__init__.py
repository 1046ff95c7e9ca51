"""End-to-end and per-layer benchmark of the shipped ``repro solve`` path.

Run it from the repository root::

    python -m perf [--seed S] [--workload NAME] [--quick]
    python -m perf compare A.json [A2.json ...] -- B.json [B2.json ...]
    python -m perf select [--corpus-seed C] [--out PATH]

See ``perf/README.md`` for the workloads, the metrics and their bounds.
Importing this package does nothing but define paths.
"""

from pathlib import Path

#: Repository root: the benchmark runs the program from ``ROOT/src``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERF = ROOT / "perf"
#: Everything a run writes lives under here (ignored by git).
OUT = PERF / "out"
EXPECTED = PERF / "expected"
