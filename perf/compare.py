"""``python -m perf compare A.json [A2.json ...] -- B.json [B2.json ...]``.

Compares result files of a parent (A, before ``--``) and a change (B):
one row per workload x end-to-end metric, each metric judged against
its ``BENCHMARK.json`` bound by :func:`perf.stats.verdict` (medians, the
parent's quartile spread, ``unresolved`` when that spread exceeds the
bound).  A change whose runs failed any solve is a regression too.
Exits 1 on any regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from perf import ROOT
from perf.stats import median, spread, verdict


def _load(paths) -> tuple[dict, dict]:
    """``{(workload, metric): [values]}`` and ``{workload: failed}``."""
    values: dict[tuple[str, str], list[float]] = {}
    failed: dict[str, int] = {}
    for path in paths:
        report = json.loads(Path(path).read_text())
        for workload, row in report["workloads"].items():
            failed[workload] = failed.get(workload, 0) + row["failed"]
            for metric, value in row["end_to_end"].items():
                values.setdefault((workload, metric), []).append(value)
    return values, failed


def compare(a_paths, b_paths, metrics) -> list[dict]:
    """Rows for every workload x metric present on both sides."""
    a, _ = _load(a_paths)
    b, b_failed = _load(b_paths)
    rows = []
    for workload in sorted({w for w, _ in a} & {w for w, _ in b}):
        if b_failed.get(workload):
            rows.append({
                "workload": workload, "metric": "failed", "verdict": "regression",
                "parent": 0, "change": b_failed[workload], "worse": 0.0,
                "spread": 0.0, "bound": 0.0,
            })
        for m in metrics:
            key = (workload, m["name"])
            if key not in a or key not in b:
                continue
            result, worse = verdict(a[key], b[key], better=m["better"], bound=m["bound"])
            rows.append({
                "workload": workload,
                "metric": m["name"],
                "verdict": result,
                "parent": median(a[key]),
                "change": median(b[key]),
                "worse": worse,
                "spread": spread(a[key]),
                "bound": m["bound"],
            })
    return rows


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: python -m perf compare A.json [A2.json ...] -- B.json [B2.json ...]",
              file=sys.stderr)
        return 2
    cut = argv.index("--")
    a_paths, b_paths = argv[:cut], argv[cut + 1:]
    if not a_paths or not b_paths:
        print("error: need at least one result file on each side of --", file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows = compare(a_paths, b_paths, metrics)
    print(f"{'workload':16s} {'metric':14s} {'parent':>12s} {'change':>12s} "
          f"{'worse':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for r in rows:
        print(f"{r['workload']:16s} {r['metric']:14s} {r['parent']:>12.6g} "
              f"{r['change']:>12.6g} {r['worse']:>+8.1%} {r['spread']:>7.1%} "
              f"{r['bound']:>6.0%}  {r['verdict']}")
    counts = {v: sum(r["verdict"] == v for r in rows) for v in
              ("regression", "unresolved", "better", "ok")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["regression"] else 0
