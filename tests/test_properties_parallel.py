"""Property-based tests for the parallel branch-and-bound driver.

``ClusterCoordinator(local_workers=N)`` promises the optimal cost and a valid schedule that
achieves it, for any worker count.  Worker counts are {1, 2, 4};
example counts are modest because every example forks worker processes.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    BnBParameters,
    BranchAndBound,
    LIFOSelection,
)

from repro.cluster import ClusterCoordinator
from test_properties import compiled_problems

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

WORKERS = st.sampled_from([1, 2, 4])


@SETTINGS
@given(prob=compiled_problems(max_tasks=6), workers=WORKERS)
def test_throughput_mode_finds_the_optimum(prob, workers):
    params = BnBParameters(selection=LIFOSelection())
    seq = BranchAndBound(params).solve(prob)
    thr = ClusterCoordinator(
        params, local_workers=workers, split_depth=2
    ).solve(prob)
    assert thr.best_cost == seq.best_cost
    if thr.proc_of is not None:
        sched = thr.schedule()
        sched.validate()
        assert abs(sched.max_lateness() - thr.best_cost) < 1e-9
