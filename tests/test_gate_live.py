"""Live gate: attaching a LiveMonitor does not change the search.

A monitored solve must report the bare solve's counters and cost: a
monitor that changes the search is a bug, not overhead.  ``interval=0``
samples at every check-in, so the monitor really runs.
"""

from __future__ import annotations

import pytest

from repro.core.engine import BranchAndBound
from repro.obs import LiveMonitor, Observability

from bench_cells import QUICK_CELLS, schedule_fingerprint


@pytest.mark.parametrize("cell", QUICK_CELLS, ids=lambda c: c.name)
def test_monitored_solve_equals_bare_solve(cell):
    problem = cell.problem()
    params = cell.params()
    bare = BranchAndBound(params).solve(problem)
    monitor = LiveMonitor(interval=0.0)
    live = BranchAndBound(
        params, obs=Observability(live=monitor)
    ).solve(problem)
    assert schedule_fingerprint(live) == schedule_fingerprint(bare)
    assert monitor.samples >= 1
