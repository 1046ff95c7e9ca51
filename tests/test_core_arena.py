"""Struct-of-arrays arena: slots, growth, adoption and the cost domain.

The arena is the array engine's state store; these tests pin its three
contracts in isolation from any engine:

* *round-trip* — ``adopt`` followed by ``materialize`` reproduces the
  original :class:`~repro.core.state.SearchState` field for field, and
  :class:`~repro.core.arena.ArenaState` delegates every accessor to
  exactly those values (growth and slot reuse must not disturb them);
* *serialization* — an arena-backed state pickles as its materialized
  flat state, so checkpoints and the parallel wire format never carry
  (or depend on) an arena, and a checkpoint written by the array engine
  resumes on any engine;
* *integer scaling* — :func:`~repro.core.arena.analyze_cost_domain`
  certifies exactness only when the documented certificate holds, and
  ``as_integer``/``from_integer`` are mutually inverse and
  order-preserving on certified domains.
"""

from __future__ import annotations

import math
import pickle
import random

import pytest

from repro.core import (
    BnBParameters,
    BranchAndBound,
    ResourceBounds,
    SolveStatus,
    root_state,
)
from repro.core import _native
from repro.core.arena import (
    ArenaProblem,
    ArenaState,
    StateArena,
    analyze_cost_domain,
)
from repro.core.bounds import TrivialBound
from repro.core.checkpoint import Checkpointer, load_checkpoint
from repro.core.state import SearchState
from repro.model import Task, TaskGraph, compile_problem, shared_bus_platform
from repro.workload import WorkloadSpec, generate_task_graph

from conftest import make_diamond, make_forkjoin, native_disabled

SPEC = WorkloadSpec(num_tasks=(6, 9), depth=(2, 4))


def _problem(seed: int = 0, m: int = 2):
    return compile_problem(
        generate_task_graph(SPEC, seed=seed), shared_bus_platform(m)
    )


def _random_states(problem, rng, walks=4):
    """Every state along a few random root-to-goal branches."""
    states = []
    for _ in range(walks):
        state = root_state(problem)
        states.append(state)
        while not state.is_goal:
            task = rng.choice(state.ready_tasks())
            state = state.child(task, rng.randrange(problem.m))
            states.append(state)
    return states


_FIELDS = (
    "scheduled_mask", "ready_mask", "level", "scheduled_lateness",
    "last_task", "last_proc", "proc_of", "start", "finish", "avail",
)


def _assert_same_state(got: SearchState, want: SearchState):
    for attr in _FIELDS:
        assert getattr(got, attr) == getattr(want, attr), attr
    assert got.min_avail() == want.min_avail()
    assert got.signature() == want.signature()


# ---------------------------------------------------------------------------
# Adopt / materialize round-trip
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("track_est", [False, True], ids=["plain", "est"])
def test_adopt_materialize_roundtrip(seed, track_est):
    problem = _problem(seed)
    arena = StateArena(ArenaProblem(problem), track_est=track_est)
    rng = random.Random(seed)
    states = _random_states(problem, rng)
    est = [0.0] * problem.n if track_est else None
    slots = [arena.adopt(s, est=est, estart=est) for s in states]
    # Materialize in a scrambled order: slots must be independent.
    order = list(range(len(states)))
    rng.shuffle(order)
    for i in order:
        _assert_same_state(arena.materialize(slots[i]), states[i])


def test_growth_preserves_every_live_slot():
    problem = _problem(1)
    arena = StateArena(ArenaProblem(problem), track_est=False, capacity=4)
    rng = random.Random(1)
    walk = _random_states(problem, rng, walks=2)
    initial_cap, initial_version = arena.cap, arena.version
    # Keep adopting until the arena has doubled at least twice; every
    # previously-adopted row must survive each reallocation untouched.
    states, slots = [], []
    while arena.cap < 4 * initial_cap:
        for state in walk:
            states.append(state)
            slots.append(arena.adopt(state))
    assert arena.version > initial_version
    for slot, state in zip(slots, states):
        _assert_same_state(arena.materialize(slot), state)


def test_free_slots_are_reused_before_growth():
    problem = _problem(2)
    arena = StateArena(ArenaProblem(problem), track_est=False)
    root = root_state(problem)
    slots = [arena.adopt(root) for _ in range(8)]
    cap = arena.cap
    live = arena.live
    for slot in slots[4:]:
        arena.free(slot)
    assert arena.live == live - 4
    again = [arena.alloc() for _ in range(4)]
    assert sorted(again) == sorted(slots[4:])
    assert arena.cap == cap, "freed slots must be recycled, not grown past"


# ---------------------------------------------------------------------------
# ArenaState delegation
# ---------------------------------------------------------------------------


def test_arena_state_delegates_to_materialized_state():
    problem = _problem(0, m=3)
    arena = StateArena(ArenaProblem(problem), track_est=False)
    rng = random.Random(3)
    for state in _random_states(problem, rng, walks=2):
        handle = ArenaState(arena, arena.adopt(state))
        assert handle.problem is problem
        for attr in _FIELDS:
            assert getattr(handle, attr) == getattr(state, attr), attr
        assert handle.is_goal == state.is_goal
        assert list(handle.ready_tasks()) == list(state.ready_tasks())
        for task in range(problem.n):
            assert handle.is_ready(task) == (
                bool((state.ready_mask >> task) & 1)
            )
        assert handle.min_avail() == state.min_avail()
        assert handle.signature() == state.signature()
        if not state.is_goal:
            task = state.ready_tasks()[0]
            _assert_same_state(handle.child(task, 0), state.child(task, 0))


def test_arena_state_pickles_as_flat_search_state():
    problem = _problem(1)
    arena = StateArena(ArenaProblem(problem), track_est=False)
    rng = random.Random(4)
    for state in _random_states(problem, rng, walks=2):
        handle = ArenaState(arena, arena.adopt(state))
        clone = pickle.loads(pickle.dumps(handle))
        assert type(clone) is SearchState
        _assert_same_state(clone, state)


# ---------------------------------------------------------------------------
# Checkpoints written by the array engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "native", [True, False], ids=["array", "array-no-native"]
)
def test_array_engine_checkpoint_resumes_on_any_engine(
    tmp_path, monkeypatch, native
):
    """Kill-resume differential across engines.

    A checkpoint captured mid-search under the array engine, with or
    without its compiled driver, must resume to the full-run answer —
    on the object engine too, since snapshots carry flat states only.
    """
    if not native:
        monkeypatch.setattr(_native, "_LIB", None)
        monkeypatch.setattr(_native, "_LIB_TRIED", True)
    problem = _problem(5)
    # The trivial bound barely prunes, so the 60-vertex cap genuinely
    # interrupts the search mid-frontier (~7.8k vertices uncapped).
    base = BnBParameters(engine="array", lower_bound=TrivialBound())
    full = BranchAndBound(base).solve(problem)

    path = tmp_path / "cp.pkl"
    capped = base.evolve(resources=ResourceBounds(max_vertices=60))
    partial = BranchAndBound(capped).solve(
        problem, checkpoint=Checkpointer(str(path), seconds=0)
    )
    assert partial.status is SolveStatus.TRUNCATED
    snap = load_checkpoint(str(path))
    assert snap.frontier
    for resume_engine in ("object", "array"):
        resumed = BranchAndBound(
            base.evolve(engine=resume_engine)
        ).solve(problem, resume=snap)
        assert resumed.best_cost == full.best_cost
        assert resumed.proc_of == full.proc_of
        assert resumed.start == full.start


# ---------------------------------------------------------------------------
# Cost-domain certificate
# ---------------------------------------------------------------------------


def _graph_with_wcets(wcet: float, deadline: float = 400.0) -> TaskGraph:
    g = TaskGraph(name="domain")
    for i in range(4):
        g.add_task(Task(name=f"t{i}", wcet=wcet, relative_deadline=deadline))
    g.add_edge("t0", "t1", message_size=2.0)
    g.add_edge("t0", "t2", message_size=4.0)
    g.add_edge("t1", "t3", message_size=1.0)
    return g


def test_integer_durations_certify_exact():
    problem = compile_problem(make_diamond(), shared_bus_platform(2))
    domain = analyze_cost_domain(problem)
    assert domain.exact
    assert domain.terms == 2 * problem.n + 4


def test_roundtrip_and_order_on_certified_domain():
    problem = compile_problem(make_forkjoin(), shared_bus_platform(2))
    domain = analyze_cost_domain(problem)
    assert domain.exact
    step = 2.0 ** -domain.scale_bits
    rng = random.Random(5)
    values = sorted(
        rng.randrange(-(1 << 20), 1 << 20) * step for _ in range(200)
    )
    scaled = [domain.as_integer(v) for v in values]
    assert scaled == sorted(scaled), "scaling must preserve order"
    for v, s in zip(values, scaled):
        assert domain.from_integer(s) == v


def test_as_integer_rejects_off_grid_values():
    problem = compile_problem(make_diamond(), shared_bus_platform(2))
    domain = analyze_cost_domain(problem)
    assert domain.exact
    off_grid = 2.0 ** -(domain.scale_bits + 1)
    with pytest.raises(ValueError):
        domain.as_integer(off_grid)
    with pytest.raises(ValueError):
        domain.as_integer(math.inf)


def test_fine_grained_durations_fail_the_certificate():
    # 0.1 is dyadic as a float but with 55 fractional bits; the summed
    # magnitude bound then overflows 2**53, so exactness must be denied.
    problem = compile_problem(
        _graph_with_wcets(0.1, deadline=1.0), shared_bus_platform(2)
    )
    assert not analyze_cost_domain(problem).exact


def test_huge_magnitudes_fail_the_certificate():
    problem = compile_problem(
        _graph_with_wcets(2.0 ** 60, deadline=2.0 ** 61),
        shared_bus_platform(2),
    )
    domain = analyze_cost_domain(problem)
    assert domain.scale_bits == 0
    assert not domain.exact


def test_certificate_never_blocks_solving():
    """Inexact domains stay solvable (margin semantics, same answer)."""
    problem = compile_problem(
        _graph_with_wcets(0.1, deadline=1.0), shared_bus_platform(2)
    )
    solve = BranchAndBound(BnBParameters(engine="array")).solve
    results = {
        "object": BranchAndBound(BnBParameters()).solve(problem),
        "array": solve(problem),
    }
    with native_disabled():
        results["array-no-native"] = solve(problem)
    costs = {r.best_cost for r in results.values()}
    gens = {r.stats.generated for r in results.values()}
    assert len(costs) == 1 and len(gens) == 1
