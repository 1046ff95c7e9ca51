"""Dedicated tests for the dominance rules (``repro.core.dominance``).

:class:`StateDominance` is an *optional* pruning rule the paper leaves
off, so its soundness is entirely on us: the differential section checks
it never prunes the optimum on seeded DAGs small enough for the
independent oracle to enumerate.  The unit section pins the store-size
bound (``max_front``) and the deterministic FIFO eviction order; the
composition section covers
:class:`ChainedDominance` and the rule registry.
"""

from __future__ import annotations

import pytest

from repro.core import BnBParameters, BranchAndBound
from repro.core.dominance import (
    DOMINANCE_RULES,
    ChainedDominance,
    NoDominance,
    StateDominance,
)
from repro.core.state import root_state
from repro.model import compile_problem, shared_bus_platform
from repro.workload import WorkloadSpec, generate_task_graph

from conftest import make_independent
from oracle import oracle_optimum

SPEC = WorkloadSpec(num_tasks=(4, 6), depth=(2, 4))
SEEDS = range(12)


def _problem(seed: int):
    graph = generate_task_graph(SPEC, seed=seed)
    m = 3 if len(graph) <= 4 else 2
    return compile_problem(graph, shared_bus_platform(m))


# ---------------------------------------------------------------------------
# Soundness against the independent oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("max_front", [1, 64])
def test_state_dominance_never_prunes_the_optimum(seed, max_front):
    """Engine + StateDominance still finds the true optimum — even at
    ``max_front=1``, where almost every recorded state is evicted."""
    problem = _problem(seed)
    params = BnBParameters(dominance=StateDominance(max_front=max_front))
    result = BranchAndBound(params).solve(problem)
    assert result.found_solution
    assert result.best_cost == pytest.approx(
        oracle_optimum(problem), abs=1e-9
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_state_dominance_never_adds_work(seed):
    problem = _problem(seed)
    plain = BranchAndBound(BnBParameters()).solve(problem)
    dom = BranchAndBound(
        BnBParameters(dominance=StateDominance())
    ).solve(problem)
    assert dom.best_cost == pytest.approx(plain.best_cost, abs=1e-9)
    assert dom.stats.generated <= plain.stats.generated


# ---------------------------------------------------------------------------
# The bounded Pareto front
# ---------------------------------------------------------------------------


def _incomparable_states():
    """Two same-key states with pointwise-incomparable finish vectors.

    Scheduling two independent tasks on one processor in either order
    reaches the same (task set, canonical assignment) key, but each
    order finishes its first task earlier — neither dominates.
    """
    problem = compile_problem(make_independent(2), shared_bus_platform(2))
    root = root_state(problem)
    return root.child(0, 0).child(1, 0), root.child(1, 0).child(0, 0)


def test_front_store_size_stays_bounded():
    """Regression for the ``max_front`` bound: the store never exceeds
    ``max_front`` entries per key, whatever is thrown at it."""
    a, b = _incomparable_states()
    checker = StateDominance(max_front=1).fresh()
    for state in (a, b, a, b, a):
        checker.is_dominated(state)
    assert checker.store_size() <= 1
    assert checker.front_evictions > 0


def test_front_eviction_is_deterministic_fifo():
    a, b = _incomparable_states()
    checker = StateDominance(max_front=1).fresh()
    assert checker.is_dominated(a) is False  # recorded
    # b is incomparable: not dominated, and recording it evicts a (FIFO).
    assert checker.is_dominated(b) is False
    assert checker.front_evictions == 1
    # a was forgotten, so it is re-admitted (eviction loses pruning
    # power, never soundness) — and that re-admission evicts b in turn.
    assert checker.is_dominated(a) is False
    assert checker.front_evictions == 2
    assert checker.store_size() == 1


def test_duplicate_state_is_dominated_by_itself():
    a, _ = _incomparable_states()
    checker = StateDominance(max_front=4).fresh()
    assert checker.is_dominated(a) is False
    assert checker.is_dominated(a) is True


def test_max_front_validated():
    with pytest.raises(ValueError):
        StateDominance(max_front=0)


# ---------------------------------------------------------------------------
# Composition and registry
# ---------------------------------------------------------------------------


def test_chained_dominance_prunes_when_any_member_does():
    a, _ = _incomparable_states()
    chain = ChainedDominance(NoDominance(), StateDominance()).fresh()
    assert chain.is_noop is False
    assert chain.is_dominated(a) is False
    assert chain.is_dominated(a) is True


def test_chained_dominance_of_noops_is_noop():
    chain = ChainedDominance(NoDominance(), NoDominance())
    assert chain.fresh().is_noop is True
    assert chain.name == "none+none"


def test_chained_dominance_requires_members():
    with pytest.raises(ValueError):
        ChainedDominance()


def test_registry_exposes_all_rules():
    # The transposition table is the --transposition switch, not a rule D.
    assert set(DOMINANCE_RULES) == {"none", "state"}


def test_cli_wires_max_front_through():
    from repro.cli import _build_dominance, build_parser

    args = build_parser().parse_args(
        ["solve", "g.json", "--dominance", "state", "--max-front", "7"]
    )
    rule = _build_dominance(args)
    assert isinstance(rule, StateDominance)
    assert rule.max_front == 7

    args = build_parser().parse_args(
        ["solve", "g.json", "--dominance", "state", "--transposition"]
    )
    rule = _build_dominance(args)
    assert isinstance(rule, ChainedDominance)
    assert rule.name == "transposition+state"
