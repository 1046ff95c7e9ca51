"""Dupfree gate: the allocation-ordered tree is exact and duplicate-free.

On each cell, default+TT, AO (``--branching AO``) and AO under a
memory-limited frontier must all run to completion and find the same
optimum.  The AO runs prune no duplicates, since the space has none.
On duplicate-rich cells (``expect_win``) the classic tree does prune
some and AO generates no more vertices than default+TT.  Under
``engine='array'`` AO falls back to the object core bit for bit.
"""

from __future__ import annotations

import pytest

from repro.core.engine import BranchAndBound
from repro.core.params import BnBParameters
from repro.core.resources import ResourceBounds
from repro.core.selection import MemoryLimitedSelection

from bench_cells import DUPFREE_CELLS, schedule_fingerprint
from faultlib import hard_problem

_BOUNDS = ResourceBounds(max_vertices=2_000_000)


@pytest.mark.parametrize(
    "seed,processors,expect_win", DUPFREE_CELLS,
    ids=[f"hard-s{s}-m{m}" for s, m, _ in DUPFREE_CELLS],
)
def test_ao_matches_tt_cost_without_duplicates(seed, processors, expect_win):
    problem = hard_problem(seed, processors)
    tt_params = BnBParameters.paper_default(
        resources=_BOUNDS
    ).with_transposition(table_bytes=64 << 20)
    ao_params = BnBParameters.dupfree(resources=_BOUNDS)
    ml_params = BnBParameters.dupfree(
        selection=MemoryLimitedSelection(cap=256), resources=_BOUNDS
    )
    tt = BranchAndBound(tt_params).solve(problem)
    ao = BranchAndBound(ao_params).solve(problem)
    ml = BranchAndBound(ml_params).solve(problem)

    for res in (tt, ao, ml):
        assert not res.stats.truncated
    assert ao.best_cost == pytest.approx(tt.best_cost, abs=1e-9)
    assert ml.best_cost == pytest.approx(ao.best_cost, abs=1e-9)
    assert ao.stats.pruned_duplicate == 0
    assert ml.stats.pruned_duplicate == 0
    if expect_win:
        assert tt.stats.pruned_duplicate > 0
        assert ao.stats.generated <= tt.stats.generated

    fallback = BranchAndBound(ao_params.evolve(engine="array")).solve(problem)
    assert schedule_fingerprint(fallback) == schedule_fingerprint(ao)
