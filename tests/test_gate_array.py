"""Array gate: every engine tier searches the reference loop's tree.

The unfused reference loop, the fused object engine, the array engine
on the compiled chunk driver and the array engine with the driver
disabled (its fused fallback) must report identical counters, cost and
schedule on every quick cell, and each line must run the tier it names.
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

    def solve(p, tier, **kwargs):
        result = BranchAndBound(p, **kwargs).solve(problem)
        assert result.stats.engine_path == tier
        return _fingerprint(result)

    want = solve(params, "reference", fused=False)
    assert solve(params.evolve(engine="object"), "fused") == want
    native = "native" if _native.native_available() else "fused"
    assert solve(array, native) == want
    with native_disabled():
        assert not _native.native_available()
        assert solve(array, "fused") == want
