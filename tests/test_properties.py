"""Property-based tests (hypothesis) for the core invariants.

These cover the load-bearing guarantees of the library:

* every scheduling path (heuristics, search states) produces schedules
  that pass the independent validity checker;
* the lower-bound hierarchy trivial <= LB0 <= LB1 <= LB2 holds at
  arbitrary reachable states, and every bound under-approximates the
  true optimum;
* the optimal engine matches the brute-force oracle on arbitrary DAGs;
* the BR-pruned engine honours its guarantee;
* generator output respects its specification for arbitrary in-range
  specs; serialization round-trips losslessly.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    LB0,
    LB1,
    LB2,
    BnBParameters,
    BranchAndBound,
    TrivialBound,
    root_state,
)
from repro.io import graph_from_dict, graph_to_dict
from repro.model import Channel, Task, TaskGraph, compile_problem, shared_bus_platform
from repro.scheduling import HEURISTICS, edf_schedule
from repro.workload import WorkloadSpec, assign_deadlines, generate_task_graph

from conftest import brute_force_optimum

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def small_dags(draw, max_tasks: int = 6):
    """Arbitrary weighted DAGs with sliced deadlines."""
    n = draw(st.integers(min_value=2, max_value=max_tasks))
    wcets = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=40.0),
            min_size=n,
            max_size=n,
        )
    )
    g = TaskGraph(name="hyp")
    for i, c in enumerate(wcets):
        g.add_task(Task(name=f"t{i}", wcet=round(c, 3)))
    # Edges only from lower to higher index: acyclic by construction.
    for j in range(1, n):
        for i in range(j):
            if draw(st.booleans()):
                size = draw(st.floats(min_value=0.0, max_value=30.0))
                g.add_channel(
                    Channel(src=f"t{i}", dst=f"t{j}", message_size=round(size, 3))
                )
    laxity = draw(st.floats(min_value=1.0, max_value=2.5))
    return assign_deadlines(g, laxity_ratio=laxity)


@st.composite
def compiled_problems(draw, max_tasks: int = 6):
    g = draw(small_dags(max_tasks=max_tasks))
    m = draw(st.integers(min_value=1, max_value=3))
    return compile_problem(g, shared_bus_platform(m))


@st.composite
def reachable_states(draw, max_tasks: int = 6):
    """A state somewhere along a random scheduling path."""
    prob = draw(compiled_problems(max_tasks=max_tasks))
    st_ = root_state(prob)
    steps = draw(st.integers(min_value=0, max_value=prob.n))
    for _ in range(steps):
        ready = st_.ready_tasks()
        if not ready:
            break
        task = ready[draw(st.integers(min_value=0, max_value=len(ready) - 1))]
        proc = draw(st.integers(min_value=0, max_value=prob.m - 1))
        st_ = st_.child(task, proc)
    return st_


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@SETTINGS
@given(prob=compiled_problems())
def test_every_heuristic_schedule_is_consistent(prob):
    for heuristic in HEURISTICS.values():
        res = heuristic(prob)
        sched = res.to_schedule()
        assert sched.is_complete
        assert sched.violations() == []
        assert res.max_lateness == sched.max_lateness()


@SETTINGS
@given(state=reachable_states())
def test_bound_hierarchy(state):
    t = TrivialBound().evaluate(state)
    b0 = LB0().evaluate(state)
    b1 = LB1().evaluate(state)
    b2 = LB2().evaluate(state)
    assert t <= b0 + 1e-9
    assert b0 <= b1 + 1e-9
    assert b1 <= b2 + 1e-9


@SETTINGS
@given(state=reachable_states(max_tasks=5))
def test_bounds_under_approximate_best_completion(state):
    prob = state.problem

    def best_completion(s):
        if s.is_goal:
            return s.scheduled_lateness
        return min(
            best_completion(s.child(t, q))
            for t in s.ready_tasks()
            for q in range(prob.m)
        )

    truth = best_completion(state)
    for bound in (LB0(), LB1(), LB2()):
        assert bound.evaluate(state) <= truth + 1e-9


@SETTINGS
@given(state=reachable_states())
def test_partial_states_are_consistent_schedules(state):
    assert state.to_schedule().violations() == []


@SETTINGS
@given(prob=compiled_problems(max_tasks=5))
def test_selection_rules_agree_on_the_optimum(prob):
    """Selection (S) changes the search order, never the answer: under
    an optimal branching rule every rule lands on the same cost."""
    from repro.core import SELECTION_RULES

    costs = {
        name: BranchAndBound(
            BnBParameters(selection=cls())
        ).solve(prob).best_cost
        for name, cls in SELECTION_RULES.items()
    }
    reference = costs.pop("LIFO")
    for name, cost in costs.items():
        assert abs(cost - reference) < 1e-9, (name, cost, reference)


@SETTINGS
@given(prob=compiled_problems(max_tasks=5))
def test_approximate_branching_never_beats_optimal(prob):
    """BF1/DF search restricted trees: their cost is achievable (so it
    can't undercut the optimum) but carries no optimality guarantee."""
    from repro.core import BRANCHING_RULES

    optimum = BranchAndBound(BnBParameters()).solve(prob).best_cost
    for name in ("BF1", "DF"):
        res = BranchAndBound(
            BnBParameters(branching=BRANCHING_RULES[name]())
        ).solve(prob)
        assert res.best_cost >= optimum - 1e-9
        assert res.best_cost <= res.initial_upper_bound + 1e-9


class _HierarchySpy(LB1):
    """Behaves exactly like LB1, but cross-checks the bound hierarchy at
    every state the engine actually bounds during the search."""

    def __init__(self):
        self.checked = 0
        self._lb0 = LB0()
        self._trivial = TrivialBound()

    def evaluate(self, state):
        value = LB1.evaluate(self, state)
        lb0 = self._lb0.evaluate(state)
        trivial = self._trivial.evaluate(state)
        assert trivial <= lb0 + 1e-9
        assert lb0 <= value + 1e-9
        self.checked += 1
        return value


@SETTINGS
@given(prob=compiled_problems(max_tasks=5))
def test_bound_hierarchy_at_every_searched_vertex(prob):
    """trivial <= LB0 <= LB1 at each vertex the engine bounds — the
    search-visited set, not just randomly sampled reachable states."""
    spy = _HierarchySpy()
    res = BranchAndBound(
        BnBParameters(lower_bound=spy, engine="reference")
    ).solve(prob)
    # The reference path bounds every generated vertex.
    assert spy.checked >= res.stats.generated - 1


@SETTINGS
@given(prob=compiled_problems(max_tasks=5))
def test_engine_matches_brute_force(prob):
    res = BranchAndBound(BnBParameters()).solve(prob)
    assert res.best_cost == math.inf or res.found_solution
    assert res.best_cost <= edf_schedule(prob).max_lateness + 1e-9
    assert abs(res.best_cost - brute_force_optimum(prob)) < 1e-9


@SETTINGS
@given(prob=compiled_problems(max_tasks=5), br=st.sampled_from([0.05, 0.2]))
def test_br_guarantee(prob, br):
    opt = brute_force_optimum(prob)
    res = BranchAndBound(BnBParameters.near_optimal(br)).solve(prob)
    assert res.best_cost <= opt + br * abs(res.best_cost) + 1e-9
    assert res.best_cost >= opt - 1e-9


@SETTINGS
@given(g=small_dags())
def test_graph_json_round_trip(g):
    g2 = graph_from_dict(graph_to_dict(g))
    assert g2.task_names == g.task_names
    for name in g.task_names:
        a, b = g.task(name), g2.task(name)
        assert a.wcet == b.wcet
        assert a.phase == b.phase
        assert a.relative_deadline == b.relative_deadline
    assert [(c.src, c.dst, c.message_size) for c in g.channels] == [
        (c.src, c.dst, c.message_size) for c in g2.channels
    ]


@SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_lo=st.integers(min_value=2, max_value=8),
    n_span=st.integers(min_value=0, max_value=6),
    ccr=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
)
def test_generator_respects_arbitrary_specs(seed, n_lo, n_span, ccr):
    spec = WorkloadSpec(
        name="hyp",
        num_tasks=(n_lo, n_lo + n_span),
        depth=(1, min(4, n_lo)),
        ccr=ccr,
    )
    g = generate_task_graph(spec, seed=seed)
    g.validate()
    assert spec.num_tasks[0] <= len(g) <= spec.num_tasks[1]
    assert spec.depth[0] <= g.depth <= spec.depth[1]
    lo_c, hi_c = spec.wcet_bounds
    assert all(lo_c <= t.wcet <= hi_c for t in g)
    for t in g:
        assert t.relative_deadline >= t.wcet - 1e-9
    # Windows non-overlapping along every chain (contiguous mode).
    for ch in g.channels:
        assert g.task(ch.dst).arrival(1) >= g.task(ch.src).absolute_deadline(
            1
        ) - 1e-9


@SETTINGS
@given(prob=compiled_problems(max_tasks=5))
def test_optimal_schedule_passes_validity_checker(prob):
    res = BranchAndBound(BnBParameters()).solve(prob)
    sched = res.schedule()
    sched.validate()
    assert sched.max_lateness() <= edf_schedule(prob).max_lateness + 1e-9


@SETTINGS
@given(prob=compiled_problems(max_tasks=6))
def test_bus_simulation_invariants(prob):
    """The simulated bus serializes: transfers never overlap, conserve
    nominal transfer time, and never complete before the nominal model."""
    from repro.model.bussim import simulate_bus

    res = BranchAndBound(BnBParameters()).solve(prob)
    sim = simulate_bus(res.schedule())
    for a, b in zip(sim.transfers, sim.transfers[1:]):
        assert b.start >= a.finish - 1e-9
    for t in sim.transfers:
        assert t.start >= t.ready - 1e-9
        assert t.finish >= t.nominal_arrival - 1e-9
        assert t.finish - t.start == pytest.approx(
            t.nominal_arrival - t.ready
        )
    assert sim.busy_time == pytest.approx(
        sum(t.finish - t.start for t in sim.transfers)
    )


@SETTINGS
@given(g=small_dags(max_tasks=6))
def test_preemptive_relaxation_bounds_nonpreemptive(g):
    """The [12] preemptive uniprocessor optimum never exceeds the
    non-preemptive single-machine optimum, and its schedule is valid."""
    from repro.scheduling.preemptive import preemptive_edf

    pre = preemptive_edf(g)
    pre.validate(g)
    prob = compile_problem(g, shared_bus_platform(1))
    nonpre = BranchAndBound(BnBParameters()).solve(prob)
    assert pre.max_lateness <= nonpre.best_cost + 1e-6


@SETTINGS
@given(g=small_dags(max_tasks=6))
def test_stg_round_trip_structure(g):
    """STG export/import preserves task count, wcets and precedence."""
    from repro.io import format_stg, parse_stg

    g2 = parse_stg(format_stg(g))
    assert len(g2) == len(g)
    assert sorted(t.wcet for t in g2) == pytest.approx(
        sorted(t.wcet for t in g)
    )
    # Insertion order is topological in both, so index-wise renaming maps
    # arcs onto arcs.
    rename = dict(zip(g2.task_names, g.task_names))
    assert {(rename[c.src], rename[c.dst]) for c in g2.channels} == {
        (c.src, c.dst) for c in g.channels
    }
