"""Parallel gate: the multiprocessing driver finds the sequential cost.

``ClusterCoordinator`` on 2 local workers must find the sequential cost on every
quick cell, with the workers on the object engine and on the native
driver (``engine="array"``).  Only the cost is a theorem: which
equal-cost schedule wins, and the shard-summed counters, depend on
cross-process timing (docs/CLUSTER.md).
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterCoordinator
from repro.core.engine import BranchAndBound

from bench_cells import QUICK_CELLS

#: The object-engine cases keep the cell's name as their id.
ENGINE_CASES = [pytest.param(c, "object", id=c.name) for c in QUICK_CELLS] + [
    pytest.param(c, "array", id=f"{c.name}-native") for c in QUICK_CELLS
]


@pytest.mark.parametrize("cell,engine", ENGINE_CASES)
def test_throughput_mode_finds_sequential_cost(cell, engine):
    problem = cell.problem()
    params = cell.params()
    seq = BranchAndBound(params).solve(problem)
    thr = ClusterCoordinator(
        params.evolve(engine=engine), local_workers=2, split_depth=2
    ).solve(problem)
    assert thr.best_cost == seq.best_cost
    if engine == "array":
        thr.schedule().validate()
        assert thr.stats.engine_path == "native"
