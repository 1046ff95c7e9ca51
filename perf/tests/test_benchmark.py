"""BENCHMARK.json is well formed and names exactly what a run reports."""

import json
import re

import pytest

from perf import ROOT
from perf.inputs import Cell
from perf.run import WORKLOADS, WorkloadRun, end_to_end, per_layer
from perf.solvers import Sample

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_file_follows_its_schema():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCH["paths"] == ["perf"]
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(WORKLOADS)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    every = BENCH["end_to_end"] + BENCH["per_layer"]
    all_names = names + [m["name"] for m in every]
    assert len(set(all_names)) == len(all_names)
    for m in every:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _cell(name, generated=100):
    return Cell(name, "hard", 1, 2, "LIFO", "0" * 64, 1.0, generated)


def _trace(solve, generated):
    return {
        "spans": {
            "cli.import": {"calls": 1, "total_s": 0.3, "self_s": 0.3},
            "engine.solve": {"calls": 1, "total_s": 0.5, "self_s": 0.1},
            "expand.fused": {"calls": 10, "total_s": 0.4, "self_s": 0.4},
            "parallel.solve_graph": {"calls": 1, "total_s": 0.6, "self_s": 0.1},
        },
        "counters": {},
        "results": [{
            "solve": solve, "status": "optimal", "generated": generated,
            "explored": 40, "peak_active": 7,
        }],
        "parallel": [{
            "shards": 5, "shards_stale": 1, "worker_restarts": 0, "shard_retries": 0
        }],
    }


@pytest.fixture
def run():
    cells = [_cell("a"), _cell("b")]
    r = WorkloadRun(WORKLOADS["hard-throughput"], cells, {})
    r.probes = [0.3, 0.31, 0.29]
    r.timed = [Sample(c.name, 1.0 + i / 10, 50_000) for i in range(3) for c in cells]
    r.traced = [[
        Sample(c.name, 1.5, 50_000, trace=_trace(c.name, 80)) for c in cells
    ]]
    r.speedup_base = [Sample(c.name, 2.4, 40_000) for c in cells]
    return r


def test_a_run_reports_every_end_to_end_metric(run):
    values = end_to_end(run)
    assert list(values) == [m["name"] for m in BENCH["end_to_end"]]
    assert values["solves_per_s"] == pytest.approx(2 / 2.0)  # best pass per cell
    assert values["setup_s"] == pytest.approx(0.3)
    assert values["peak_rss_mb"] == pytest.approx(50_000 / 1024)
    assert all(v > 0 for v in values.values())


def test_a_traced_run_reports_every_per_layer_metric(run):
    cells = {c.name: c for c in run.cells}
    values = per_layer(run, cells, run.timed)
    assert list(values) == [m["name"] for m in BENCH["per_layer"]]
    assert values["parallel.generated_ratio"] == pytest.approx(0.8)
    assert values["parallel.speedup"] == pytest.approx(4.8 / 2.0)
    assert values["trace.overhead_frac"] == pytest.approx(3.0 / 2.0 - 1)
    assert values["engine.vertices_per_s"] == pytest.approx(160 / 1.2)
    assert values["expand.fused_calls"] == 20


def test_failed_solves_do_not_count_toward_timings(run):
    run.timed.append(Sample("a", 0.001, 50_000, error="exit 1"))
    assert end_to_end(run)["solves_per_s"] == pytest.approx(2 / 2.0)
