"""Live gate: attaching a LiveMonitor does not change the search.

A monitored solve must report the bare solve's counters and cost: a
monitor that changes the search is a bug, not overhead.  ``interval=0``
samples at every check-in, so the monitor really runs.  The array
engine cases must also stay on the native driver: attaching the monitor
must not force the slow path.
"""

from __future__ import annotations

import pytest

from repro.core import _native
from repro.core.engine import BranchAndBound
from repro.obs import LiveMonitor, Observability

from bench_cells import QUICK_CELLS, schedule_fingerprint

CASES = [pytest.param(cell, "object", id=cell.name) for cell in QUICK_CELLS] + [
    pytest.param(
        cell,
        "array",
        id=f"{cell.name}-array",
        marks=pytest.mark.skipif(
            not _native.native_available(), reason="native kernel unavailable"
        ),
    )
    for cell in QUICK_CELLS
]


@pytest.mark.parametrize("cell, engine", CASES)
def test_monitored_solve_equals_bare_solve(cell, engine):
    problem = cell.problem()
    params = cell.params().evolve(engine=engine)
    bare = BranchAndBound(params).solve(problem)
    monitor = LiveMonitor(interval=0.0)
    live = BranchAndBound(
        params, obs=Observability(live=monitor)
    ).solve(problem)
    assert schedule_fingerprint(live) == schedule_fingerprint(bare)
    assert monitor.samples >= 1
    if engine == "array":
        assert live.stats.engine_path == "native"
        assert monitor.bus.snapshot()["status"]["engine_path"] == "native"
