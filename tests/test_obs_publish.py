"""One report per solve: start, summary, metrics, heartbeat and ``/status``.

A parallel or cluster solve is one solve: its shallow collect pass
reports nothing of its own, and the coordinator publishes the finished
solve once, through the same function as the in-process engine, so the
trace, the metrics, the progress ``done`` line and ``/status`` all
describe the returned result.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from faultlib import HARD_SEEDS, _cli_env, hard_problem
from repro.cluster import ClusterCoordinator
from repro.core.checkpoint import StopToken
from repro.core.dominance import StateDominance
from repro.core.engine import BranchAndBound, SolveStatus
from repro.core.params import BnBParameters
from repro.core.shards import FrontierCollector
from repro.io.json_io import save_graph
from repro.model import compile_problem, shared_bus_platform
from repro.obs import (
    JsonlSink,
    LiveMonitor,
    MemorySink,
    MetricsRegistry,
    Observability,
    ProgressReporter,
    load_trace,
    render_trace_report,
)
from repro.workload.generator import generate_task_graph
from repro.workload.suites import spec_for_profile

PARAMS = BnBParameters()
PROBLEM = hard_problem()


def _observed():
    """A full observability bundle, plus a log of every ``/status`` state."""
    lines: list[str] = []
    monitor = LiveMonitor(interval=0.0)
    states: list[tuple] = []
    bus_update = monitor.bus.update

    def update(**fields):
        bus_update(**fields)
        status = monitor.bus.snapshot()["status"]
        states.append((status.get("phase"), status.get("result_status")))

    monitor.bus.update = update
    obs = Observability(
        sink=MemorySink(),
        metrics=MetricsRegistry(),
        progress=ProgressReporter(interval=0, emit=lines.append),
        live=monitor,
    )
    return obs, lines, states


def _solve(driver: str, obs, split_depth: int):
    if driver == "parallel":
        return ClusterCoordinator(
            PARAMS, local_workers=2, split_depth=split_depth, prefetch=1,
            obs=obs,
        ).solve(PROBLEM)
    return ClusterCoordinator(
        PARAMS, local_workers=2, split_depth=split_depth, obs=obs
    ).solve(PROBLEM)


def _metric(obs, name):
    return obs.metrics.snapshot()[name]["value"]


@pytest.mark.parametrize("driver", ["parallel", "cluster"])
@pytest.mark.parametrize(
    "split_depth", [2, 64], ids=["shards", "shallow-pass-closes-the-tree"]
)
def test_one_report_describes_the_returned_result(driver, split_depth):
    obs, lines, states = _observed()
    result = _solve(driver, obs, split_depth)
    stats = result.stats
    assert result.status is SolveStatus.OPTIMAL
    if split_depth > PROBLEM.n:
        assert result.stats.engine_path == "fused"  # no shard was cut

    sink = obs.sink
    assert len(sink.of_kind("start")) == 1
    (summary,) = sink.of_kind("summary")
    assert summary["status"] == result.status.value
    assert summary["stats"] == stats.as_dict()
    assert summary["best_cost"] == result.best_cost
    assert summary["engine_path"] == stats.engine_path

    assert _metric(obs, "bnb_generated_vertices_total") == stats.generated
    assert _metric(obs, "bnb_explored_vertices_total") == stats.explored
    assert _metric(obs, "bnb_solves_total") == 1
    tier = obs.metrics.snapshot()["bnb_engine_path"]["labels"]
    assert tier["path"] == stats.engine_path

    done = [line for line in lines if line.startswith("[repro] done:")]
    assert done == [lines[-1]]
    assert lines[-1] == (
        f"[repro] done: {result.status.value}; {stats.summary()}"
    )

    status = obs.live.bus.snapshot()["status"]
    assert status["phase"] == "done"
    assert status["result_status"] == result.status.value
    assert status["generated"] == stats.generated
    assert status["engine_path"] == stats.engine_path
    assert not [s for s in states if s[0] == "solving" and s[1] is not None]


def test_parallel_trace_report_breaks_down_the_whole_solve(tmp_path):
    path = tmp_path / "t.jsonl"
    obs = Observability(sink=JsonlSink(str(path)))
    result = ClusterCoordinator(
        PARAMS, local_workers=2, prefetch=1, obs=obs
    ).solve(PROBLEM)
    obs.close()
    text = render_trace_report(load_trace(str(path)))
    section = text.split("pruning breakdown by rule:")[1].split("\n\n")[0]
    counts = [
        int(m.group(1).replace(",", ""))
        for m in re.finditer(r"\s([\d,]+)\s+[\d.]+%", section)
    ]
    assert counts and sum(counts) == result.stats.pruned_total
    assert f"generated={result.stats.generated}" in text


@pytest.mark.parametrize("driver", ["parallel", "cluster"])
@pytest.mark.parametrize(
    "split_depth", [2, 64], ids=["shards", "shallow-pass-closes-the-tree"]
)
def test_parallel_trace_profile_ends_at_the_result(
    driver, split_depth, tmp_path
):
    # The Section 4.1 instance (paper profile, seed 13) on two processors:
    # the search improves on the EDF bound, and every accepted improvement
    # reaches the trace with the counts merged so far.
    problem = compile_problem(
        generate_task_graph(spec_for_profile("paper"), seed=13),
        shared_bus_platform(2),
    )
    path = tmp_path / "t.jsonl"
    obs = Observability(sink=JsonlSink(str(path)))
    if driver == "parallel":
        result = ClusterCoordinator(
            PARAMS, local_workers=2, split_depth=split_depth, prefetch=1,
            obs=obs,
        ).solve(problem)
    else:
        result = ClusterCoordinator(
            PARAMS, local_workers=2, split_depth=split_depth, obs=obs
        ).solve(problem)
    obs.close()
    assert result.incumbent_source == "search"
    profile = load_trace(str(path)).anytime_profile()
    assert len(profile) >= 2
    assert profile[-1][1] == result.best_cost
    generated = [g for g, _ in profile]
    assert generated == sorted(generated)
    assert generated[-1] <= result.stats.generated


@pytest.mark.parametrize("seed", HARD_SEEDS)
@pytest.mark.parametrize(
    "engine", ["object", "reference"], ids=["fused", "reference"]
)
def test_trace_files_duplicates_apart_from_dominance(seed, engine):
    params = BnBParameters(
        dominance=StateDominance(), engine=engine
    ).with_transposition()
    sink = MemorySink()
    result = BranchAndBound(
        params, obs=Observability(sink=sink)
    ).solve(hard_problem(seed))
    assert result.stats.engine_path == (
        "fused" if engine == "object" else "reference"
    )
    traced: dict[str, int] = {}
    for event in sink.of_kind("prune"):
        cause = event["cause"]
        traced[cause] = traced.get(cause, 0) + event.get("count", 1)
    assert result.stats.pruned_duplicate > 0
    assert traced.get("duplicate", 0) == result.stats.pruned_duplicate
    assert traced.get("dominated", 0) == result.stats.pruned_dominated


def test_parallel_stop_before_dispatch_keeps_the_shallow_incumbent():
    token = StopToken()
    token.set("test")
    obs, lines, _states = _observed()
    solver = ClusterCoordinator(
        PARAMS, local_workers=2, prefetch=1, obs=obs, stop=token
    )
    result = solver.solve(PROBLEM)
    shallow = BranchAndBound(PARAMS).solve(
        PROBLEM, dispatcher=FrontierCollector(2)
    )
    assert result.status is SolveStatus.INTERRUPTED
    assert result.found_solution
    assert result.best_cost == shallow.best_cost
    assert result.stats.generated == shallow.stats.generated
    assert solver.last_report.joins == 0
    (summary,) = obs.sink.of_kind("summary")
    assert summary["status"] == "interrupted"
    assert lines[-1].startswith("[repro] done: interrupted;")


def test_sigint_on_workers_solve_ends_interrupted(tmp_path):
    # A cell that takes seconds on two workers, so the signal lands
    # mid-solve; the coordinator's heartbeat (it counts the workers)
    # appears once the workers are spawned.
    graph = generate_task_graph(
        spec_for_profile("paper", laxity_ratio=1.05), seed=12
    )
    gpath = tmp_path / "g.json"
    save_graph(graph, gpath)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "solve", str(gpath), "-m", "3",
         "--selection", "LLB", "--workers", "2", "--progress"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_cli_env(),
        start_new_session=True,
    )
    err_lines = []
    running = False
    try:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            line = proc.stderr.readline()
            if not line:
                break
            err_lines.append(line)
            if "workers=" in line:
                running = proc.poll() is None
                break
        if running:
            # A terminal Ctrl-C signals the whole process group.
            os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    err = "".join(err_lines) + err
    if not running:
        assert proc.returncode in (0, 1), err
        pytest.skip("solve finished before SIGINT could land")
    assert proc.returncode == 130, err
    assert "Traceback" not in err
    assert "interrupted: L_max=" in out
    assert "[repro] done: interrupted;" in err
