"""Unit tests for repro.obs.progress and the engine heartbeat hook."""

import math

import pytest

from repro.core import BnBParameters, BranchAndBound
from repro.core.resources import ResourceBounds
from repro.model import compile_problem, shared_bus_platform
from repro.obs import Observability, ProgressReporter, format_progress_line
from repro.workload import generate_task_graph, scaled_spec


@pytest.fixture
def hard_problem():
    return compile_problem(
        generate_task_graph(scaled_spec(), seed=0), shared_bus_platform(2)
    )


class TestFormatting:
    def test_line_contents(self):
        line = format_progress_line(
            elapsed=2.0,
            explored=1234,
            generated=5678,
            active=90,
            incumbent=-1.5,
            vertices_per_second=2839.0,
            eta=4.0,
        )
        assert "explored=1,234" in line
        assert "generated=5,678" in line
        assert "incumbent=-1.5" in line
        assert "eta=4.0s" in line

    def test_unbounded_run_has_no_eta_and_dash_incumbent(self):
        line = format_progress_line(
            elapsed=1.0,
            explored=1,
            generated=1,
            active=1,
            incumbent=math.inf,
            vertices_per_second=1.0,
            eta=None,
        )
        assert "eta" not in line
        assert "incumbent=-" in line


class TestReporter:
    def test_interval_rate_limits(self):
        lines = []
        rep = ProgressReporter(interval=3600.0, emit=lines.append)
        rep.start()
        emitted = [
            rep.maybe_emit(explored=i, generated=i, active=0, incumbent=0.0)
            for i in range(5)
        ]
        # The first check-in emits immediately (instant feedback that the
        # heartbeat is live); after that the interval gates every line.
        assert emitted == [True] + [False] * 4
        assert lines and len(lines) == 1

    def test_zero_interval_emits_every_checkin(self):
        lines = []
        rep = ProgressReporter(interval=0.0, emit=lines.append)
        for i in range(3):
            assert rep.maybe_emit(
                explored=i, generated=i, active=0, incumbent=0.0
            )
        assert len(lines) == 3
        assert rep.lines_emitted == 3

    def test_eta_from_vertex_cap(self):
        eta = ProgressReporter._eta(
            generated=500, elapsed=1.0, vps=500.0,
            max_vertices=1000.0, time_limit=math.inf,
        )
        assert eta == pytest.approx(1.0)

    def test_eta_takes_tighter_bound(self):
        eta = ProgressReporter._eta(
            generated=500, elapsed=1.0, vps=500.0,
            max_vertices=1000.0, time_limit=1.2,
        )
        assert eta == pytest.approx(0.2)

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            ProgressReporter(interval=-1.0)


class TestEngineHeartbeat:
    def test_heartbeats_and_final_line(self, hard_problem):
        lines = []
        rep = ProgressReporter(interval=0.0, emit=lines.append)
        res = BranchAndBound(
            BnBParameters(engine="object"), obs=Observability(progress=rep)
        ).solve(hard_problem)
        # The Python loop checks in every 64 explored vertices plus once
        # at the end; this search explores ~700.
        assert rep.lines_emitted >= res.stats.explored // 64
        assert lines[-1].startswith("[repro] done:")
        assert res.status.value in lines[-1]

    def test_eta_present_with_vertex_cap(self, hard_problem):
        lines = []
        rep = ProgressReporter(interval=0.0, emit=lines.append)
        BranchAndBound(
            BnBParameters(resources=ResourceBounds(max_vertices=100_000)),
            obs=Observability(progress=rep),
        ).solve(hard_problem)
        heartbeats = [ln for ln in lines if "done:" not in ln]
        assert heartbeats
        assert all("eta=" in ln for ln in heartbeats)

    def test_silent_when_detached(self, hard_problem, capsys):
        BranchAndBound(BnBParameters()).solve(hard_problem)
        captured = capsys.readouterr()
        assert "[repro]" not in captured.err


class TestGapAndWorkersFields:
    def test_gap_and_workers_rendered_when_known(self):
        line = format_progress_line(
            elapsed=2.0,
            explored=100,
            generated=200,
            active=10,
            incumbent=3.5,
            vertices_per_second=100.0,
            eta=None,
            gap=0.75,
            workers_alive=4,
        )
        assert " gap=0.75" in line
        assert " workers=4" in line

    def test_fields_absent_when_unknown(self):
        line = format_progress_line(
            elapsed=2.0,
            explored=100,
            generated=200,
            active=10,
            incumbent=3.5,
            vertices_per_second=100.0,
            eta=None,
        )
        assert "gap=" not in line
        assert "workers=" not in line

    def test_maybe_emit_forwards_gap(self):
        lines = []
        reporter = ProgressReporter(interval=0.0, emit=lines.append)
        reporter.maybe_emit(
            explored=64, generated=100, active=5, incumbent=2.0,
            gap=0.5, workers_alive=2,
        )
        assert lines and "gap=0.5" in lines[0]
        assert "workers=2" in lines[0]
