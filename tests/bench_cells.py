"""Fixed-seed solver cells shared by the parity-gate test modules.

Every gate in ``tests/test_gate_*.py`` (and the golden check in
``tests/test_bench_golden.py``) solves cells from these tables once,
untimed, and compares search fingerprints.  Timing lives in the
end-to-end benchmark (``python -m perf``); these modules only check
that every engine path searches the same tree.

Seeds are fixed forever: ``benchmarks/golden_counts.json`` pins the
vertex counts of every :data:`BENCH_CELLS` entry.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.core.params import BnBParameters
from repro.core.resources import ResourceBounds
from repro.model.compile import CompiledProblem, compile_problem
from repro.model.platform import shared_bus_platform
from repro.workload.generator import generate_task_graph
from repro.workload.suites import spec_for_profile

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "golden_counts.json",
)

PRESETS = {
    "lifo-lb1": BnBParameters.paper_default,
    "llb-lb1": BnBParameters.paper_llb,
    "lifo-lb0": BnBParameters.paper_lb0,
}


@dataclass(frozen=True)
class BenchCell:
    """One workload draw solved under one preset.

    ``num_tasks``/``depth`` override the profile's generator spec (the
    "large" cells draw bigger graphs than any stock profile).
    ``max_vertices`` caps the search at a fixed vertex budget: every
    engine path truncates at the identical vertex, so counts still
    compare exactly.
    """

    name: str
    profile: str
    seed: int
    processors: int
    preset: str
    num_tasks: tuple[int, int] | None = None
    depth: tuple[int, int] | None = None
    max_vertices: int | None = None

    def problem(self) -> CompiledProblem:
        changes: dict = {}
        if self.num_tasks is not None:
            changes.update(num_tasks=self.num_tasks, depth=self.depth,
                           name=f"{self.profile}-bench")
        spec = spec_for_profile(self.profile, **changes)
        graph = generate_task_graph(spec, self.seed)
        return compile_problem(graph, shared_bus_platform(self.processors))

    def params(self) -> BnBParameters:
        """Preset parameters under a vertex cap and no wall-clock limit.

        A time limit would cut the search at a non-reproducible vertex;
        exhaustive cells finish far below their 2M safety cap.
        """
        if self.max_vertices is None:
            bounds = ResourceBounds(max_vertices=2_000_000)
        else:
            bounds = ResourceBounds(max_vertices=self.max_vertices)
        return PRESETS[self.preset](resources=bounds)


_LARGE24 = {"num_tasks": (24, 26), "depth": (9, 12)}
_LARGE26 = {"num_tasks": (26, 28), "depth": (10, 13)}

BENCH_CELLS: tuple[BenchCell, ...] = (
    BenchCell("paper-s9-m3-llb-lb1", "paper", 9, 3, "llb-lb1"),
    BenchCell("paper-s1-m4-llb-lb1", "paper", 1, 4, "llb-lb1"),
    BenchCell("paper-s9-m6-llb-lb1", "paper", 9, 6, "llb-lb1",
              max_vertices=120_000),
    BenchCell("scaled-s11-m3-llb-lb1", "scaled", 11, 3, "llb-lb1"),
    BenchCell("large24-s1-m4-llb-lb1", "paper", 1, 4, "llb-lb1",
              max_vertices=120_000, **_LARGE24),
    BenchCell("large24-s1-m6-llb-lb1", "paper", 1, 6, "llb-lb1",
              max_vertices=120_000, **_LARGE24),
    BenchCell("large26-s2-m2-llb-lb1", "paper", 2, 2, "llb-lb1",
              max_vertices=120_000, **_LARGE26),
    BenchCell("scaled-s0-m2-lifo-lb1", "scaled", 0, 2, "lifo-lb1"),
    BenchCell("scaled-s11-m3-lifo-lb1", "scaled", 11, 3, "lifo-lb1"),
    BenchCell("paper-s13-m2-lifo-lb1", "paper", 13, 2, "lifo-lb1"),
    BenchCell("scaled-s0-m2-lifo-lb0", "scaled", 0, 2, "lifo-lb0"),
)

#: One exhaustive cell per preset: what every gate module solves.
QUICK_CELLS: tuple[BenchCell, ...] = (
    BENCH_CELLS[0], BENCH_CELLS[7], BENCH_CELLS[10],
)

#: Duplicate-free head-to-head cells as ``(seed, processors,
#: expect_win)`` draws of ``faultlib.hard_spec``.  ``expect_win`` marks
#: duplicate-rich cells where the allocation-ordered tree must generate
#: no more vertices than default+TT; the other cell is an honest
#: counter-example and is only parity-gated.
DUPFREE_CELLS: tuple[tuple[int, int, bool], ...] = (
    (0, 2, True),
    (4, 3, True),
    (5, 2, False),
)


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["instances"]


def schedule_fingerprint(result) -> tuple:
    """Counters, cost and schedule: equal only for the same search."""
    return (
        result.stats.generated,
        result.stats.explored,
        result.best_cost,
        result.proc_of,
        result.start,
    )
