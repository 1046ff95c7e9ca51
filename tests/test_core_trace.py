"""Unit tests for repro.core.trace and the engine's event stream."""

import math

import pytest

from repro.core import (
    SELECTION_RULES,
    BnBParameters,
    BranchAndBound,
    LLBSelection,
    NoUpperBound,
    StateDominance,
    TraceRecorder,
    _native,
)
from repro.model import compile_problem, shared_bus_platform
from repro.obs import MemorySink, MultiSink, Observability, PhaseProfiler
from repro.workload import generate_task_graph, scaled_spec

from conftest import make_diamond
from faultlib import hard_problem as faultlib_hard_problem


@pytest.fixture
def hard_problem():
    # Seed 0 has a genuine search (~3k vertices at m=2).
    return compile_problem(
        generate_task_graph(scaled_spec(), seed=0), shared_bus_platform(2)
    )


def _traced(problem, params=None, *, sink=None):
    """Solve with a TraceRecorder (plus ``sink``, if given) attached."""
    trace = TraceRecorder()
    attached = trace if sink is None else MultiSink(sink, trace)
    res = BranchAndBound(
        params or BnBParameters(), obs=Observability(sink=attached)
    ).solve(problem)
    return res, trace


def _untimed(events):
    """A trace as tiers must agree on it: no clock readings (``t``,
    ``elapsed``) and no tier fields (``engine_path``,
    ``engine_fallback``)."""
    drop = ("t", "elapsed", "engine_path", "engine_fallback")
    out = []
    for kind, payload in events:
        payload = {k: v for k, v in payload.items() if k not in drop}
        if "stats" in payload:
            payload["stats"] = {
                k: v for k, v in payload["stats"].items() if k not in drop
            }
        out.append((kind, payload))
    return out


class TestRecorderMechanics:
    def test_events_recorded(self, hard_problem):
        sink = MemorySink()
        res, trace = _traced(hard_problem, sink=sink)
        assert len(sink.of_kind("explore")) == res.stats.explored
        assert len(trace.incumbents) == res.stats.incumbent_updates
        assert len(sink.of_kind("incumbent")) == res.stats.incumbent_updates
        assert trace.initial_bound == pytest.approx(res.initial_upper_bound)

    def test_explore_events_monotone_steps(self, hard_problem):
        sink = MemorySink()
        _traced(hard_problem, sink=sink)
        explores = sink.of_kind("explore")
        steps = [e["step"] for e in explores]
        assert steps == sorted(steps)
        gens = [e["generated"] for e in explores]
        assert all(b >= a for a, b in zip(gens, gens[1:]))

    def test_incumbent_costs_strictly_improve(self, hard_problem):
        _, trace = _traced(hard_problem)
        costs = [e.cost for e in trace.incumbents]
        assert costs == sorted(costs, reverse=True)
        assert len(set(costs)) == len(costs)

    def test_final_incumbent_matches_result(self, hard_problem):
        res, trace = _traced(hard_problem)
        if trace.incumbents:
            assert trace.incumbents[-1].cost == pytest.approx(res.best_cost)

    def test_explore_cap_bounds_memory(self, hard_problem):
        # A sampling sink bounds the explore log; incumbent events are
        # never sampled, so the anytime series stays complete.
        sink = MemorySink(sample_every=10)
        res, trace = _traced(hard_problem, sink=sink)
        assert len(sink.of_kind("explore")) == math.ceil(
            res.stats.explored / 10
        )
        assert len(trace.incumbents) == res.stats.incumbent_updates

    def test_no_trace_is_default(self, hard_problem):
        solver = BranchAndBound(BnBParameters())
        assert solver.obs is None
        res = solver.solve(hard_problem)  # runs fine without recording
        assert res.stats.engine_path == (
            "native" if _native.native_available() else "fused"
        )


class TestTierParity:
    def test_incumbent_series_equal_on_every_tier(self, hard_problem):
        # An incumbent-only recorder keeps the fused and native tiers.
        params = BnBParameters(upper_bound=NoUpperBound())
        runs = {
            "reference": _traced(
                hard_problem, params.evolve(engine="reference")
            ),
            "fused": _traced(hard_problem, params.evolve(engine="object")),
        }
        if _native.native_available():
            runs["native"] = _traced(hard_problem, params)
        series = {}
        for path, (res, trace) in runs.items():
            assert res.stats.engine_path == path
            assert trace.initial_bound == math.inf
            assert trace.incumbents
            series[path] = [(e.generated, e.cost) for e in trace.incumbents]
        for path in runs:
            assert series[path] == series["reference"]

    @pytest.mark.parametrize("sample_every", [1, 7])
    @pytest.mark.parametrize("layer", ["no-D", "state+tt"])
    @pytest.mark.parametrize("selection", ["LIFO", "LLB", "FIFO"])
    @pytest.mark.parametrize("seed", [0, 1, 3, 4, 5, 7])
    def test_reference_trace_equals_fused_trace(
        self, seed, selection, layer, sample_every
    ):
        """One trace schema on every Python tier: the reference loop and
        the fused expander emit the same events, tallied per vertex.
        Seeds 0-7 of the tight-deadline spec, less the two (2 and 6)
        whose root the initial bound closes."""
        params = BnBParameters(selection=SELECTION_RULES[selection]())
        if layer == "state+tt":
            params = params.evolve(dominance=StateDominance())
            params = params.with_transposition()
        problem = faultlib_hard_problem(seed)
        traces = {}
        for engine, path in (("reference", "reference"), ("object", "fused")):
            sink = MemorySink(sample_every=sample_every)
            res = BranchAndBound(
                params.evolve(engine=engine), obs=Observability(sink=sink)
            ).solve(problem)
            assert res.stats.engine_path == path
            traces[path] = _untimed(sink.events)
        assert sum(k == "prune" for k, _ in traces["fused"]) > 0
        assert traces["reference"] == traces["fused"]

    def test_profiled_default_solve_stays_fused(self, hard_problem):
        profiler = PhaseProfiler()
        res = BranchAndBound(
            BnBParameters(), obs=Observability(profiler=profiler)
        ).solve(hard_problem)
        assert res.stats.engine_path == "fused"
        assert res.stats.engine_fallback == "profiler attached"
        assert res.profile.seconds("expand") > 0.0


class TestAnytimeProfile:
    def test_profile_starts_at_initial_bound(self, hard_problem):
        res, trace = _traced(hard_problem)
        profile = trace.anytime_profile()
        assert profile[0] == (0, res.initial_upper_bound)
        assert profile[-1][1] == pytest.approx(res.best_cost)

    def test_cost_at_interpolates(self, hard_problem):
        res, trace = _traced(hard_problem)
        assert trace.cost_at(0) == pytest.approx(res.initial_upper_bound)
        assert trace.cost_at(10**9) == pytest.approx(res.best_cost)

    def test_lifo_converges_before_llb(self, hard_problem):
        """The anytime story behind Figure 3(a): with no initial bound,
        depth-first reaches its first incumbent after far fewer generated
        vertices than best-first (which must wade through the shallow
        frontier before reaching any goal)."""
        def first_incumbent(params):
            _, trace = _traced(hard_problem, params)
            assert trace.incumbents
            return trace.incumbents[0].generated

        lifo = first_incumbent(BnBParameters(upper_bound=NoUpperBound()))
        llb = first_incumbent(
            BnBParameters(selection=LLBSelection(), upper_bound=NoUpperBound())
        )
        assert lifo < llb

    def test_max_level_and_mean_active(self, hard_problem):
        sink = MemorySink()
        _traced(hard_problem, sink=sink)
        explores = sink.of_kind("explore")
        assert 0 < max(e["level"] for e in explores) < hard_problem.n
        assert sum(e["active"] for e in explores) / len(explores) >= 0.0


class TestExplorePayload:
    def test_explore_payload_shape(self):
        prob = compile_problem(make_diamond(), shared_bus_platform(2))
        sink = MemorySink()
        res = BranchAndBound(
            BnBParameters(), obs=Observability(sink=sink)
        ).solve(prob)
        explores = sink.of_kind("explore")
        assert len(explores) == res.stats.explored
        for event in explores:
            assert set(event) == {"step", "generated", "level", "lb", "active"}
