"""Transposition gate: duplicate pruning keeps the search exact.

With the table on, the fused expander must still search exactly the
reference loop's tree (counters, duplicate prunes, cost, schedule).
The table may only remove duplicates: the optimum is unchanged and
the search never generates more vertices than without it.
"""

from __future__ import annotations

import pytest

from repro.core.engine import BranchAndBound

from bench_cells import QUICK_CELLS, schedule_fingerprint


@pytest.mark.parametrize("cell", QUICK_CELLS, ids=lambda c: c.name)
def test_table_keeps_fused_equal_reference_and_cost(cell):
    problem = cell.problem()
    params = cell.params()
    tt_params = params.with_transposition(table_bytes=64 << 20)
    base = BranchAndBound(params).solve(problem)
    ref = BranchAndBound(tt_params.evolve(engine="reference")).solve(problem)
    tt = BranchAndBound(tt_params.evolve(engine="object")).solve(problem)
    assert schedule_fingerprint(tt) == schedule_fingerprint(ref)
    assert tt.stats.pruned_duplicate == ref.stats.pruned_duplicate
    assert not base.stats.truncated
    assert tt.best_cost == base.best_cost
    assert tt.stats.generated <= base.stats.generated
