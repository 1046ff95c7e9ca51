"""Integration tests: the ISSUE 1 acceptance criteria end to end.

Covers the 50-task traced solve (parseable JSONL, phase breakdown
covering >= 90% of wall clock, metrics snapshot), the ``repro report``
subcommand, the new solve flags, and the satellite fixes (clock stopped
in ``finally``).
"""

import json

import pytest

from repro.cli import main
from repro.core import BnBParameters, BranchAndBound
from repro.core.resources import ResourceBounds
from repro.io import save_graph
from repro.model import compile_problem, shared_bus_platform
from repro.obs import (
    JsonlSink,
    MetricsRegistry,
    Observability,
    PhaseProfiler,
    load_trace,
    render_trace_report,
)
from repro.workload import generate_task_graph, scaled_spec, tiny_spec


@pytest.fixture(scope="module")
def fifty_task_problem():
    spec = scaled_spec(name="fifty", num_tasks=(50, 50), depth=(10, 12))
    graph = generate_task_graph(spec, seed=3)
    assert len(graph) == 50
    return compile_problem(graph, shared_bus_platform(3))


class TestFiftyTaskAcceptance:
    @pytest.fixture(scope="class")
    def traced_run(self, fifty_task_problem, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs") / "trace.jsonl"
        obs = Observability(
            sink=JsonlSink(str(path)),
            profiler=PhaseProfiler(),
            metrics=MetricsRegistry(),
        )
        params = BnBParameters(
            resources=ResourceBounds(max_vertices=20_000)
        )
        result = BranchAndBound(params, obs=obs).solve(fifty_task_problem)
        obs.close()
        return result, obs, path

    def test_trace_file_parses(self, traced_run):
        result, _, path = traced_run
        records = [json.loads(x) for x in path.read_text().splitlines()]
        assert records, "trace file is empty"
        kinds = {r["ev"] for r in records}
        assert {"start", "summary"} <= kinds
        assert sum(1 for r in records if r["ev"] == "explore") == (
            result.stats.explored
        )

    def test_phase_breakdown_covers_wall_clock(self, traced_run):
        result, _, _ = traced_run
        assert result.profile is not None
        assert result.stats.elapsed > 0
        assert result.profile.fraction_of(result.stats.elapsed) >= 0.90

    def test_metrics_snapshot_produced(self, traced_run):
        result, obs, _ = traced_run
        snap = obs.metrics.snapshot()
        assert (
            snap["bnb_generated_vertices_total"]["value"]
            == result.stats.generated
        )
        json.dumps(snap)  # exportable

    def test_report_renders_the_trace(self, traced_run):
        _, _, path = traced_run
        report = load_trace(str(path))
        text = render_trace_report(report)
        assert "phase profile:" in text
        assert "bound" in text
        assert "result:" in text


class TestReportSubcommand:
    @pytest.fixture
    def trace_file(self, tmp_path):
        graph = generate_task_graph(scaled_spec(), seed=0)
        gpath = tmp_path / "g.json"
        save_graph(graph, gpath)
        tpath = tmp_path / "trace.jsonl"
        rc = main([
            "solve", str(gpath), "-m", "2",
            "--trace-jsonl", str(tpath), "--profile",
        ])
        assert rc == 0
        return tpath

    def test_report_subcommand(self, trace_file, capsys):
        assert main(["report", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "events:" in out
        assert "phase profile:" in out
        assert "result: optimal" in out

    def test_report_tolerates_malformed_lines(self, trace_file, capsys):
        with open(trace_file, "a") as fh:
            fh.write("this is not json\n\n{\"no_ev_key\": 1}\n")
        assert main(["report", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "skipped 2 malformed lines" in out


class TestSolveFlags:
    @pytest.fixture
    def graph_file(self, tmp_path):
        g = generate_task_graph(tiny_spec(), seed=0)
        path = tmp_path / "g.json"
        save_graph(g, path)
        return str(path)

    def test_all_obs_flags_together(self, graph_file, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        rc = main([
            "solve", graph_file,
            "--trace-jsonl", str(trace), "--trace-sample", "2",
            "--profile", "--metrics-out", str(metrics), "--progress",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert trace.exists()
        snap = json.loads(metrics.read_text())
        assert "bnb_generated_vertices_total" in snap

    def test_metrics_prometheus_extension(self, graph_file, tmp_path):
        metrics = tmp_path / "m.prom"
        assert main([
            "solve", graph_file, "--metrics-out", str(metrics),
        ]) == 0
        assert "# TYPE bnb_generated_vertices_total counter" in (
            metrics.read_text()
        )


class TestSatelliteFixes:
    def test_clock_stopped_on_resource_exception(self):
        """A vertex cap ends in an anytime result with its clock stopped."""
        from repro.obs import MemorySink

        prob = compile_problem(
            generate_task_graph(scaled_spec(), seed=0), shared_bus_platform(2)
        )
        params = BnBParameters(resources=ResourceBounds(max_vertices=50))
        sink = MemorySink()
        result = BranchAndBound(params, obs=Observability(sink=sink)).solve(
            prob
        )
        assert result.stats.truncated
        assert result.stats.elapsed > 0
        assert sink.of_kind("resource")[0]["kind"] == "MAXVERT"

    def test_stop_clock_idempotent(self):
        from repro.core import SearchStats

        stats = SearchStats()
        stats.start_clock()
        stats.stop_clock()
        first = stats.elapsed
        stats.stop_clock()
        assert stats.elapsed == first
        assert stats.vertices_per_second == 0.0  # generated == 0

    def test_vertices_per_second_nonzero_after_any_solve(self):
        prob = compile_problem(
            generate_task_graph(tiny_spec(), seed=0), shared_bus_platform(2)
        )
        res = BranchAndBound(BnBParameters()).solve(prob)
        assert res.stats.elapsed > 0
        assert res.stats.vertices_per_second > 0

    def test_result_stats_always_set(self):
        prob = compile_problem(
            generate_task_graph(tiny_spec(), seed=1), shared_bus_platform(2)
        )
        res = BranchAndBound(BnBParameters()).solve(prob)
        assert res.stats is not None
        assert res.stats.generated >= 1


class TestExperimentMetrics:
    def test_runner_aggregates_metric_snapshots(self):
        from repro.experiments.figures import fig3a

        out = fig3a(
            profile="tiny",
            processors=(2,),
            num_graphs=2,
            resources=ResourceBounds(max_vertices=5_000),
            collect_metrics=True,
        )
        metrics = out.metadata["metrics"]
        assert set(metrics) == {"BnB S=LLB", "BnB S=LIFO"}
        for entry in metrics.values():
            assert entry["runs"] == 2
            assert entry["counters"]["bnb_solves_total"] == 2
            assert entry["counters"]["bnb_generated_vertices_total"] > 0

    def test_render_includes_metrics_block(self):
        from repro.experiments.figures import fig3a
        from repro.experiments.report import render

        out = fig3a(
            profile="tiny",
            processors=(2,),
            num_graphs=1,
            resources=ResourceBounds(max_vertices=5_000),
            collect_metrics=True,
        )
        text = render(out)
        assert "-- metrics" in text
        assert "bnb_generated_vertices_total" in text

    def test_off_by_default(self):
        from repro.experiments.figures import fig3a

        out = fig3a(
            profile="tiny",
            processors=(2,),
            num_graphs=1,
            resources=ResourceBounds(max_vertices=5_000),
        )
        assert "metrics" not in out.metadata
