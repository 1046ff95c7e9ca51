"""Serialization regression tests for everything the parallel driver ships.

Worker processes receive ``(CompiledProblem, BnBParameters,
SearchState)`` triples and send back ``BnBResult`` objects, so every
one of those must pickle — and pickle *well*:

* ``CompiledProblem`` serializes as its ``(graph, platform)`` source
  and recompiles on load, so every derived array comes back
  bit-identical and the payload cannot strand stale derived fields;
* pickle memoization dedups the problem across the states of one
  stream (the driver ships dozens of shard states per worker);
* a lazy :class:`~repro.core.expand.PendingChild` pickles as its
  materialized flat state — the parent chain must never be dragged
  through the wire.
"""

from __future__ import annotations

import math
import pickle

import pytest

from repro.core import BnBParameters, BranchAndBound, root_state
from repro.core.expand import FusedExpander, PendingChild
from repro.core.state import SearchState
from repro.model import compile_problem, shared_bus_platform
from repro.workload import WorkloadSpec, generate_task_graph

from conftest import (
    make_chain,
    make_diamond,
    make_forkjoin,
    make_independent,
)


def _fixture_problems():
    problems = [
        compile_problem(make_chain(), shared_bus_platform(2)),
        compile_problem(make_diamond(), shared_bus_platform(2)),
        compile_problem(make_diamond(), shared_bus_platform(3)),
        compile_problem(make_forkjoin(), shared_bus_platform(2)),
        compile_problem(make_independent(), shared_bus_platform(3)),
    ]
    spec = WorkloadSpec(num_tasks=(8, 10), depth=(3, 5))
    for seed in (0, 1):
        problems.append(
            compile_problem(
                generate_task_graph(spec, seed=seed), shared_bus_platform(2)
            )
        )
    return problems


PROBLEMS = _fixture_problems()
_IDS = [f"{p.graph.name}-m{p.m}" for p in PROBLEMS]

#: Every derived field of CompiledProblem that must survive the
#: recompile-on-load round trip bit-identically.
_ARRAY_FIELDS = [
    "n", "m", "names", "index", "wcet", "arrival", "deadline",
    "pred_edges", "succ_edges", "delay", "uniform_delay", "pred_mask",
    "topo", "all_mask", "inputs", "succ_mask", "desc_mask", "topo_pos",
    "succ_rank_mask", "tail", "tail_lateness",
]


@pytest.mark.parametrize("problem", PROBLEMS, ids=_IDS)
def test_compiled_problem_round_trips(problem):
    clone = pickle.loads(pickle.dumps(problem))
    for name in _ARRAY_FIELDS:
        assert getattr(clone, name) == getattr(problem, name), name
    # The clone must be solvable and agree exactly with the original.
    a = BranchAndBound(BnBParameters()).solve(problem)
    b = BranchAndBound(BnBParameters()).solve(clone)
    assert b.best_cost == a.best_cost
    assert b.proc_of == a.proc_of
    assert b.stats.generated == a.stats.generated


def test_problem_pickle_memoizes_within_a_stream():
    problem = PROBLEMS[0]
    one = len(pickle.dumps(problem))
    two = len(pickle.dumps((problem, problem)))
    # The second reference is a memo backreference, not a re-encoding.
    assert two < one + 64


def _mid_path_state(problem) -> SearchState:
    state = root_state(problem)
    for _ in range(problem.n // 2):
        ready = state.ready_tasks()
        if not ready:
            break
        state = state.child(ready[0], state.level % problem.m)
    return state


@pytest.mark.parametrize("problem", PROBLEMS, ids=_IDS)
def test_search_state_round_trips(problem):
    state = _mid_path_state(problem)
    clone = pickle.loads(pickle.dumps(state))
    assert clone.scheduled_mask == state.scheduled_mask
    assert clone.ready_mask == state.ready_mask
    assert tuple(clone.proc_of) == tuple(state.proc_of)
    assert tuple(clone.start) == tuple(state.start)
    assert tuple(clone.finish) == tuple(state.finish)
    assert tuple(clone.avail) == tuple(state.avail)
    assert clone.level == state.level
    assert clone.scheduled_lateness == state.scheduled_lateness
    assert clone.canonical_key() == state.canonical_key()


def test_states_share_the_problem_in_one_stream():
    problem = PROBLEMS[-1]
    states = [_mid_path_state(problem)]
    for _ in range(9):
        ready = states[-1].ready_tasks()
        if not ready:
            break
        states.append(states[-1].child(ready[0], 0))
    base = len(pickle.dumps((problem, states[0])))
    full = len(pickle.dumps((problem, states)))
    per_state = (full - base) / max(1, len(states) - 1)
    # Each extra state costs its own arrays, never a problem re-encode.
    assert per_state < len(pickle.dumps(problem)) / 2


def _expander(problem) -> FusedExpander:
    params = BnBParameters()
    return FusedExpander(
        problem,
        params.branching.prepare(problem),
        params.lower_bound,
        params.characteristic,
        params.dominance.fresh(),
        params.elimination,
        params.break_symmetry,
    )


@pytest.mark.parametrize("problem", PROBLEMS[:4], ids=_IDS[:4])
def test_pending_child_pickles_as_flat_state(problem):
    expander = _expander(problem)
    root = expander.root()
    _seq, children, *_rest = expander.expand(root, math.inf, 1)
    pending = [c for c in children if type(c.state) is PendingChild]
    assert pending, "expected lazy children from the fused expander"
    for vertex in pending:
        flat = vertex.state.materialize()
        clone = pickle.loads(pickle.dumps(vertex.state))
        # The wire format is the flat state: no PendingChild, and
        # critically no parent chain, on the other side.
        assert type(clone) is SearchState
        assert clone.scheduled_mask == flat.scheduled_mask
        assert tuple(clone.proc_of) == tuple(flat.proc_of)
        assert tuple(clone.finish) == tuple(flat.finish)
        assert clone.canonical_key() == flat.canonical_key()


def test_parameters_and_results_round_trip():
    params = BnBParameters()
    clone = pickle.loads(pickle.dumps(params))
    assert clone.describe() == params.describe()
    result = BranchAndBound(params).solve(PROBLEMS[1])
    res_clone = pickle.loads(pickle.dumps(result))
    assert res_clone.best_cost == result.best_cost
    assert res_clone.status == result.status
    assert res_clone.proc_of == result.proc_of
    assert res_clone.stats.as_dict() == result.stats.as_dict()
