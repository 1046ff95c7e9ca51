"""The chunk boundary: every periodic hook rides the native driver.

``repro solve --engine array`` must reach the C driver with a stop
token, a subtree root, a bound channel, the live monitor, the progress
heartbeat and a metrics registry attached — and each of those must
behave exactly as on the Python loop.  Every engagement test asserts
``stats.engine_path == "native"``.  The checkpoint, resume, stop and
time-limit cases live with the other snapshot tests in
``tests/test_checkpoint.py``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from faultlib import (
    MemoryCheckpointer,
    hard_graph,
    hard_problem,
    parse_lmax,
    run_cli,
)
from repro.core import (
    BnBParameters,
    BranchAndBound,
    ResourceBounds,
    root_state,
)
from repro.core import _native
from repro.core import engine as engine_mod
from repro.core.checkpoint import StopToken, problem_fingerprint
from repro.core.engine import SubtreeSpec
from repro.core.selection import FIFOSelection, LIFOSelection, LLBSelection
from repro.core.upper import NoUpperBound
from repro.io import save_graph
from repro.model import compile_problem, shared_bus_platform
from repro.obs import (
    JsonlSink,
    LiveMonitor,
    MetricsRegistry,
    Observability,
    ProgressReporter,
)
from repro.obs.report import load_trace, render_trace_report
from repro.workload import WorkloadSpec, generate_task_graph

from bench_cells import QUICK_CELLS
from conftest import native_disabled

pytestmark = pytest.mark.skipif(
    not _native.native_available(), reason="native kernel unavailable"
)

PROBLEM = hard_problem(seed=0)

class NoopChannel:
    def poll(self, explored: int) -> float:
        return math.inf

    def publish(self, cost: float) -> None:
        pass


class StopAfterPolls(NoopChannel):
    """Sets ``token`` on the ``polls``-th poll: a stop at a chosen boundary."""

    def __init__(self, token: StopToken, polls: int) -> None:
        self.token = token
        self.polls = polls

    def poll(self, explored: int) -> float:
        self.polls -= 1
        if self.polls <= 0:
            self.token.set("test")
        return math.inf


def _array(params: BnBParameters) -> BnBParameters:
    return params.evolve(engine="array")


# ---------------------------------------------------------------------------
# Native engages wherever the gate allows
# ---------------------------------------------------------------------------


def test_cli_token_engages_native(tmp_path):
    graph_path = tmp_path / "g.json"
    save_graph(hard_graph(seed=0), graph_path)
    default = run_cli(["solve", str(graph_path), "-m", "2"])
    array = run_cli(["solve", str(graph_path), "-m", "2", "--engine", "array"])
    assert default.returncode == 0 and array.returncode == 0, array.stderr
    assert "engine: native\n" in array.stdout
    assert "engine: fused\n" in default.stdout
    assert parse_lmax(array.stdout) == parse_lmax(default.stdout)


def test_subtree_with_bound_channel_engages_native():
    problem = hard_problem(seed=5)
    params = BnBParameters.paper_llb()
    cost, _ = params.upper_bound.initial(problem)
    root = root_state(problem)
    spec = SubtreeSpec(root, params.lower_bound.evaluate(root), cost)
    fused = BranchAndBound(params).solve(
        problem, subtree=spec, bound_channel=NoopChannel()
    )
    native = BranchAndBound(_array(params)).solve(
        problem, subtree=spec, bound_channel=NoopChannel()
    )
    assert native.stats.engine_path == "native"
    assert native.stats.as_dict() | {"elapsed": 0} == (
        fused.stats.as_dict() | {"elapsed": 0}
    )
    assert native.best_cost == fused.best_cost


def test_external_bound_prunes_like_the_python_loop():
    class Tight(NoopChannel):
        def __init__(self, cost):
            self.cost = cost

        def poll(self, explored):
            return self.cost

    problem = hard_problem(seed=5)
    params = BnBParameters.paper_llb()
    optimum = BranchAndBound(params).solve(problem).best_cost
    runs = [
        BranchAndBound(p).solve(problem, bound_channel=Tight(optimum))
        for p in (params, _array(params))
    ]
    assert runs[1].stats.engine_path == "native"
    # Both tiers poll at their first boundary, before any expansion.
    assert runs[0].stats.as_dict() | {"elapsed": 0} == (
        runs[1].stats.as_dict() | {"elapsed": 0}
    )


def test_live_progress_and_metrics_ride_the_driver(monkeypatch):
    # A small driver cadence, so this quick cell meets several boundaries.
    monkeypatch.setattr(engine_mod, "_DRIVER_CADENCE", 64)
    cell = QUICK_CELLS[0]
    problem = cell.problem()
    params = _array(cell.params())
    bare = BranchAndBound(params).solve(problem)
    lines = []
    monitor = LiveMonitor(interval=0.0)
    registry = MetricsRegistry()
    obs = Observability(
        live=monitor,
        progress=ProgressReporter(interval=0.0, emit=lines.append),
        metrics=registry,
    )
    result = BranchAndBound(params, obs=obs).solve(problem)
    assert result.stats.engine_path == "native"
    assert result.stats.engine_fallback is None
    assert result.stats.as_dict() | {"elapsed": 0} == (
        bare.stats.as_dict() | {"elapsed": 0}
    )
    assert monitor.samples >= 2 and lines
    status = monitor.bus.snapshot()["status"]
    assert status["engine_path"] == "native"
    assert status["explored"] == result.stats.explored
    assert 'bnb_engine_path{path="native",fallback=""} 1' in (
        registry.to_prometheus()
    )


def test_incumbent_events_are_exact_on_native():
    problem = hard_problem(seed=5)
    params = BnBParameters.paper_lifo()
    runs = []
    for p in (params, _array(params)):
        monitor = LiveMonitor(interval=10.0)
        result = BranchAndBound(p, obs=Observability(live=monitor)).solve(
            problem
        )
        events = [
            (e["generated"], e["explored"], e["cost"])
            for e in monitor.bus.flight_events()
            if e["ev"] == "incumbent"
        ]
        runs.append((result.stats.engine_path, events))
    assert runs[1][0] == "native"
    assert runs[1][1] == runs[0][1]
    assert len(runs[0][1]) >= 1


def test_refusals_are_recorded():
    params = _array(BnBParameters())
    token = StopToken()
    with native_disabled():
        off = BranchAndBound(params).solve(PROBLEM, stop=token)
    assert off.stats.engine_path == "batch"
    assert off.stats.engine_fallback.startswith("native kernel unavailable")
    capped = BranchAndBound(
        params.evolve(resources=ResourceBounds(max_active=10))
    ).solve(PROBLEM)
    assert capped.stats.engine_path == "batch"
    assert capped.stats.engine_fallback == "MAXSZAS cap"
    ref = BranchAndBound(BnBParameters(), fused=False).solve(PROBLEM)
    assert ref.stats.engine_path == "reference"
    assert ref.stats.engine_fallback == "reference loop forced (fused=False)"


def test_report_names_the_tier_and_the_refusal(tmp_path):
    path = tmp_path / "t.jsonl"
    obs = Observability(sink=JsonlSink(str(path)))
    result = BranchAndBound(_array(BnBParameters()), obs=obs).solve(PROBLEM)
    obs.close()
    assert result.stats.engine_path == "batch"
    text = render_trace_report(load_trace(str(path)))
    assert "\nengine: batch (fallback: trace sink attached)\n" in text


# ---------------------------------------------------------------------------
# Property: stop native anywhere, finish on the object engine
# ---------------------------------------------------------------------------


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(min_value=4, max_value=20),
    m=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
    selection=st.sampled_from([LIFOSelection, FIFOSelection, LLBSelection]),
    polls=st.integers(min_value=1, max_value=10),
)
def test_native_stop_then_object_resume_matches_fused(
    n, m, seed, selection, polls
):
    """Stop the native solve at a random boundary, finish on objects.

    No initial upper bound (EDF closes most random roots outright) and
    four-vertex chunks, so the chosen boundary lands mid-search.
    """
    spec = WorkloadSpec(
        num_tasks=(n, n), depth=(2, max(2, n // 3)), ccr=1.0,
        laxity_ratio=1.05,
    )
    problem = compile_problem(
        generate_task_graph(spec, seed=seed), shared_bus_platform(m)
    )
    params = BnBParameters(
        selection=selection(),
        upper_bound=NoUpperBound(),
        resources=ResourceBounds(max_vertices=5_000, fail_on_exhaustion=False),
    )
    straight = BranchAndBound(params).solve(problem)
    token = StopToken()
    cp = MemoryCheckpointer()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_mod, "_DRIVER_CADENCE", 4)
        stopped = BranchAndBound(_array(params)).solve(
            problem,
            stop=token,
            checkpoint=cp,
            bound_channel=StopAfterPolls(token, polls),
        )
    assert stopped.stats.engine_path == "native"
    if not stopped.stats.interrupted:
        # The search ended before the chosen boundary.
        assert stopped.best_cost == straight.best_cost
        assert stopped.stats.generated == straight.stats.generated
        return
    snapshot = cp.snapshots[-1]
    assert snapshot.fingerprint == problem_fingerprint(problem, params)
    resumed = BranchAndBound(params).solve(problem, resume=snapshot)
    assert resumed.stats.engine_path == "fused"
    assert resumed.best_cost == straight.best_cost
    assert resumed.stats.generated == straight.stats.generated
    assert resumed.stats.explored == straight.stats.explored
