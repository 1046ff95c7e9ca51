"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.io import save_graph
from repro.workload import generate_task_graph, tiny_spec


@pytest.fixture
def graph_file(tmp_path):
    g = generate_task_graph(tiny_spec(), seed=0)
    path = tmp_path / "g.json"
    save_graph(g, path)
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestGenerate:
    def test_generate_prints_summary(self, capsys):
        assert main(["generate", "--profile", "tiny", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "tasks" in out and "depth" in out

    def test_generate_writes_files(self, tmp_path, capsys):
        json_path = tmp_path / "g.json"
        dot_path = tmp_path / "g.dot"
        rc = main([
            "generate", "--profile", "tiny", "--seed", "1",
            "-o", str(json_path), "--dot", str(dot_path),
        ])
        assert rc == 0
        data = json.loads(json_path.read_text())
        assert data["format"] == "repro/taskgraph-v1"
        assert dot_path.read_text().startswith("digraph")

    def test_generate_ccr_override(self, tmp_path, capsys):
        json_path = tmp_path / "g.json"
        assert main([
            "generate", "--profile", "tiny", "--ccr", "0",
            "-o", str(json_path),
        ]) == 0
        data = json.loads(json_path.read_text())
        assert all(c["message_size"] == 0.0 for c in data["channels"])


class TestSolve:
    def test_solve_default(self, graph_file, capsys):
        assert main(["solve", graph_file, "-m", "2"]) == 0
        out = capsys.readouterr().out
        assert "optimal" in out
        assert "S=LIFO" in out

    def test_solve_with_options(self, graph_file, capsys):
        rc = main([
            "solve", graph_file, "-m", "2",
            "--selection", "LLB", "--bound", "LB0",
            "--branching", "DF", "--br", "0.1",
            "--max-vertices", "10000", "--gantt",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "S=LLB" in out and "L=LB0" in out and "B=DF" in out
        assert "p0:" in out  # gantt

    def test_solve_missing_file_errors(self, capsys):
        # A missing input is a clean diagnostic (exit 2), not a traceback.
        assert main(["solve", "/nonexistent/g.json"]) == 2
        err = capsys.readouterr().err
        assert "/nonexistent/g.json" in err
        assert "cannot read" in err

    def test_solve_bad_rule_rejected_by_argparse(self, graph_file):
        with pytest.raises(SystemExit):
            main(["solve", graph_file, "--selection", "BOGUS"])

    def test_parallel_engine_line_reports_the_workers_tier(
        self, tmp_path, capsys
    ):
        # The shallow pass runs a slower tier; the workers run native.
        path = str(tmp_path / "g.json")
        main(["generate", "--profile", "paper", "--seed", "13", "-o", path])
        capsys.readouterr()
        rc = main([
            "solve", path, "-m", "2", "--workers", "2", "--engine", "array",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "\ncluster: workers=2 " in out
        assert "\nengine: native\n" in out

    def test_capped_parallel_solve_prints_its_gap(self, tmp_path, capsys):
        # As a capped sequential solve does: the open shards bound how
        # far the incumbent can be from the optimum.
        path = str(tmp_path / "g.json")
        main(["generate", "--profile", "paper", "--seed", "13", "-o", path])
        capsys.readouterr()
        rc = main([
            "solve", path, "-m", "2", "--workers", "2",
            "--max-vertices", "200",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[TRUNCATED]" in out
        assert "\ngap: <= " in out

    @pytest.mark.parametrize("seconds", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("role", [["solve"], ["cluster", "coordinator"]])
    def test_checkpoint_interval_must_be_finite_and_non_negative(
        self, graph_file, role, seconds, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main([*role, graph_file, "--checkpoint-seconds", seconds])
        assert exc.value.code == 2
        assert "--checkpoint-seconds" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_br_must_be_finite(self, graph_file, value, capsys):
        assert main(["solve", graph_file, "--br", value]) == 2
        assert "BR must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_laxity_must_be_finite(self, tmp_path, value, capsys):
        stg_path = str(tmp_path / "g.stg")
        main(["generate", "--profile", "tiny", "--seed", "2", "-o", stg_path])
        assert main(["solve", stg_path, "--laxity", value]) == 2
        assert "laxity ratio must be finite" in capsys.readouterr().err

    def test_trace_csv_is_gone(self, graph_file, tmp_path):
        with pytest.raises(SystemExit):
            main(["solve", graph_file, "--trace-csv", str(tmp_path / "t.csv")])

    def test_tt_policy_is_gone(self, graph_file):
        with pytest.raises(SystemExit):
            main([
                "solve", graph_file, "--transposition",
                "--tt-policy", "depth",
            ])

    def test_parallel_mode_deterministic_is_gone(self, graph_file):
        with pytest.raises(SystemExit):
            main([
                "solve", graph_file, "--workers", "2",
                "--parallel-mode", "deterministic",
            ])

    def test_cluster_flag_is_gone(self, graph_file, capsys):
        # The coordinator lives on 'repro cluster coordinator --bind'.
        with pytest.raises(SystemExit) as exc:
            main(["solve", graph_file, "--cluster", "127.0.0.1:0"])
        assert exc.value.code == 2
        assert "--cluster" in capsys.readouterr().err


class TestExperimentAndList:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3a" in out and "disc-ccr" in out

    def test_experiment_runs_and_saves(self, tmp_path, capsys):
        out_path = tmp_path / "fig3b.json"
        rc = main([
            "experiment", "fig3b", "--profile", "tiny",
            "--graphs", "2", "-o", str(out_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "searched vertices" in out
        data = json.loads(out_path.read_text())
        assert data["name"] == "fig3b"

    def test_experiment_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig9z"])

    def test_parser_names_every_registered_experiment(self):
        # The parser lists the ids without importing the registry.
        from repro.cli import EXPERIMENT_NAMES
        from repro.experiments.registry import EXPERIMENTS

        assert EXPERIMENT_NAMES == tuple(sorted(EXPERIMENTS))


class TestNewFeatures:
    def test_generate_stg_output(self, tmp_path, capsys):
        stg_path = tmp_path / "g.stg"
        assert main([
            "generate", "--profile", "tiny", "--seed", "2", "-o", str(stg_path),
        ]) == 0
        text = stg_path.read_text()
        assert text.splitlines()[1] == "0 0 0"  # dummy entry

    def test_solve_stg_input(self, tmp_path, capsys):
        stg_path = tmp_path / "g.stg"
        main(["generate", "--profile", "tiny", "--seed", "2", "-o", str(stg_path)])
        assert main(["solve", str(stg_path), "-m", "2", "--laxity", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "optimal" in out

    def test_solve_chart_and_bus(self, graph_file, capsys):
        assert main(["solve", graph_file, "-m", "2", "--chart", "--bus"]) == 0
        out = capsys.readouterr().out
        assert "p0 |" in out  # gantt chart row
        assert "bus[fcfs]" in out

    def test_convert_json_to_stg_and_back(self, graph_file, tmp_path, capsys):
        stg_path = tmp_path / "g.stg"
        json_path = tmp_path / "g2.json"
        dot_path = tmp_path / "g.dot"
        assert main(["convert", graph_file, str(stg_path)]) == 0
        assert main(["convert", str(stg_path), str(json_path)]) == 0
        assert main(["convert", graph_file, str(dot_path)]) == 0
        assert json.loads(json_path.read_text())["format"] == "repro/taskgraph-v1"
        assert dot_path.read_text().startswith("digraph")

    def test_scaling_experiment_registered(self, capsys):
        assert main(["list"]) == 0
        assert "scaling" in capsys.readouterr().out


class TestSolveLiveMonitor:
    def test_serve_status_prints_url_and_solves(self, graph_file, capsys):
        rc = main(["solve", graph_file, "--serve-status"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "monitor: http://127.0.0.1:" in err

    def test_serve_status_accepts_explicit_port(self, graph_file):
        args = build_parser().parse_args(
            ["solve", graph_file, "--serve-status", "8123"]
        )
        assert args.serve_status == 8123

    def test_flight_recorder_quiet_on_clean_finish(
        self, graph_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        rc = main(["solve", graph_file, "--flight-recorder", "32"])
        assert rc == 0
        # A clean solve dumps nothing: the recorder is crash-only.
        assert not (tmp_path / "repro-flight.json").exists()
