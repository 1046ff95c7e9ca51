"""Unit tests for repro.obs.events: sinks, sampling, JSONL round-trips."""

import io
import json

import pytest

from repro.core import BnBParameters, BranchAndBound
from repro.model import compile_problem, shared_bus_platform
from repro.obs import (
    CallbackSink,
    EventSink,
    JsonlSink,
    MemorySink,
    MultiSink,
    Observability,
)
from repro.workload import generate_task_graph, scaled_spec

from conftest import make_diamond


@pytest.fixture
def hard_problem():
    # Seed 0 has a genuine search (~3k generated vertices at m=2).
    return compile_problem(
        generate_task_graph(scaled_spec(), seed=0), shared_bus_platform(2)
    )


def solve_with(sink, problem):
    return BranchAndBound(
        BnBParameters(), obs=Observability(sink=sink)
    ).solve(problem)


class TestJsonlSink:
    def test_round_trip_events_written_equals_emitted(self, tmp_path, hard_problem):
        """Every event the engine emits lands in the file, verbatim."""
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        res = solve_with(sink, hard_problem)
        sink.close()
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert len(records) == sink.events_written
        kinds = [r["ev"] for r in records]
        # Unsampled run: one explore event per explored vertex.
        assert kinds.count("explore") == res.stats.explored
        assert kinds.count("start") == 1
        assert kinds.count("summary") == 1
        assert kinds[0] == "start"
        assert kinds[-1] == "summary"
        # Every record is time-stamped and typed.
        assert all("t" in r and "ev" in r for r in records)

    def test_summary_carries_stats_and_status(self, tmp_path, hard_problem):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(str(path)) as sink:
            res = solve_with(sink, hard_problem)
        summary = json.loads(path.read_text().splitlines()[-1])
        assert summary["ev"] == "summary"
        assert summary["status"] == res.status.value
        assert summary["stats"]["generated"] == res.stats.generated
        assert summary["stats"]["explored"] == res.stats.explored
        assert summary["best_cost"] == pytest.approx(res.best_cost)

    def test_sampling_thins_high_frequency_kinds_only(self, tmp_path, hard_problem):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(str(path), sample_every=10) as sink:
            res = solve_with(sink, hard_problem)
        records = [json.loads(x) for x in path.read_text().splitlines()]
        kinds = [r["ev"] for r in records]
        expected = -(-res.stats.explored // 10)  # ceil division
        assert kinds.count("explore") == expected
        # Low-frequency events are never sampled away.
        assert kinds.count("start") == 1
        assert kinds.count("summary") == 1

    def test_buffer_flush_on_close(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(str(path), buffer_events=10_000)
        sink.emit("start", {"x": 1})
        assert path.read_text() == ""  # still buffered
        sink.close()
        assert json.loads(path.read_text())["x"] == 1

    def test_borrowed_file_not_closed(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.emit("start", {})
        sink.close()
        assert not buf.closed
        assert json.loads(buf.getvalue())["ev"] == "start"

    def test_rejects_bad_knobs(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(str(tmp_path / "x"), sample_every=0)
        with pytest.raises(ValueError):
            JsonlSink(str(tmp_path / "x"), buffer_events=0)

    def test_satisfies_protocol(self, tmp_path):
        assert isinstance(JsonlSink(str(tmp_path / "x.jsonl")), EventSink)


class TestEngineEventStream:
    def test_prune_events_carry_causes(self, hard_problem):
        sink = MemorySink()
        res = solve_with(sink, hard_problem)
        prunes = sink.of_kind("prune")
        causes = {p["cause"] for p in prunes}
        assert "bound" in causes  # children eliminated by E
        # Per-vertex tallies carry a count; a stale pop is one vertex.
        pruned_vertices = sum(p.get("count", 1) for p in prunes)
        assert pruned_vertices == res.stats.pruned_total

    def test_incumbent_events_match_stats(self):
        from repro.core import NoUpperBound

        prob = compile_problem(
            generate_task_graph(scaled_spec(), seed=0), shared_bus_platform(2)
        )
        sink = MemorySink()
        res = BranchAndBound(
            BnBParameters(upper_bound=NoUpperBound()),
            obs=Observability(sink=sink),
        ).solve(prob)
        incumbents = sink.of_kind("incumbent")
        assert len(incumbents) == res.stats.incumbent_updates
        assert incumbents[-1]["cost"] == pytest.approx(res.best_cost)
        costs = [e["cost"] for e in incumbents]
        assert costs == sorted(costs, reverse=True)

    def test_resource_events_on_vertex_cap(self):
        from repro.core.resources import ResourceBounds

        prob = compile_problem(
            generate_task_graph(scaled_spec(), seed=0), shared_bus_platform(2)
        )
        sink = MemorySink()
        res = BranchAndBound(
            BnBParameters(resources=ResourceBounds(max_vertices=50)),
            obs=Observability(sink=sink),
        ).solve(prob)
        assert res.stats.truncated
        kinds = [k for k, _ in sink.events]
        assert "resource" in kinds
        assert sink.of_kind("resource")[0]["kind"] == "MAXVERT"

    def test_goal_events_for_complete_schedules(self):
        prob = compile_problem(make_diamond(), shared_bus_platform(2))
        sink = MemorySink()
        res = solve_with(sink, prob)
        # One event per vertex with goal children, counting them.
        goals = sink.of_kind("goal")
        assert sum(g["count"] for g in goals) == res.stats.goals_evaluated


class TestOtherSinks:
    def test_callback_sink(self, hard_problem):
        seen = []
        solve_with(CallbackSink(lambda k, p: seen.append(k)), hard_problem)
        assert seen[0] == "start" and seen[-1] == "summary"

    def test_multi_sink_fans_out(self, hard_problem):
        a, b = MemorySink(), MemorySink(sample_every=1000)
        solve_with(MultiSink(a, b), hard_problem)
        assert len(a) > len(b) > 0
        # The thinned sink still received the unsampled kinds.
        assert len(b.of_kind("start")) == 1
        assert len(b.of_kind("summary")) == 1

    def test_memory_sink_sampling(self, hard_problem):
        full, thin = MemorySink(), MemorySink(sample_every=7)
        res = solve_with(full, hard_problem)
        solve_with(thin, hard_problem)
        assert len(full.of_kind("explore")) == res.stats.explored
        assert len(thin.of_kind("explore")) == -(-res.stats.explored // 7)


class TestObservabilityBundle:
    def test_disabled_by_default(self):
        obs = Observability()
        assert not obs.enabled
        obs.close()  # no-op

    def test_context_manager_closes_sink(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Observability(sink=JsonlSink(str(path), buffer_events=100)) as obs:
            obs.sink.emit("start", {"n": 1})
        assert json.loads(path.read_text())["n"] == 1

    def test_engine_runs_with_empty_bundle(self, hard_problem):
        res = BranchAndBound(
            BnBParameters(), obs=Observability()
        ).solve(hard_problem)
        assert res.profile is None
        assert res.stats.generated > 0
