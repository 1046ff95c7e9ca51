"""Array gate: every engine tier searches the reference loop's tree.

The unfused reference loop, the fused object engine, the array engine
on the compiled chunk driver and the array engine with the driver
disabled (its numpy batch fallback) must report identical counters,
cost and schedule on every quick cell.
"""

from __future__ import annotations

import pytest

from repro.core import _native
from repro.core.engine import BranchAndBound

from bench_cells import QUICK_CELLS, schedule_fingerprint
from conftest import native_disabled


def _fingerprint(result) -> tuple:
    return schedule_fingerprint(result) + (
        result.stats.goals_evaluated,
        result.stats.pruned_children,
        result.stats.pruned_active,
    )


@pytest.mark.parametrize("cell", QUICK_CELLS, ids=lambda c: c.name)
def test_all_engine_tiers_equal_reference(cell):
    problem = cell.problem()
    params = cell.params()
    array = params.evolve(engine="array")
    want = _fingerprint(BranchAndBound(params, fused=False).solve(problem))
    assert _fingerprint(BranchAndBound(params).solve(problem)) == want
    assert _fingerprint(BranchAndBound(array).solve(problem)) == want
    with native_disabled():
        assert not _native.native_available()
        assert _fingerprint(BranchAndBound(array).solve(problem)) == want
