"""Checkpoint/resume and graceful-shutdown tests.

The load-bearing guarantee is the *kill-resume differential*: for every
tested ⟨B,S,E,L⟩ cell, running to completion and running-capped → final
snapshot → resume must produce the same cost and schedule, and (without
a transposition layer, which is deliberately dropped from snapshots)
exactly the same generated/explored counters.  The rest of the file
covers the format layer (atomic writes, versioning, corruption,
fingerprint binding) and the cooperative-stop path, and ends with the
real thing: SIGKILLing a live CLI solve and resuming it.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import signal
import time
from types import SimpleNamespace

import pytest

from bench_cells import QUICK_CELLS
from faultlib import (
    MemoryCheckpointer,
    hard_graph,
    hard_problem,
    kill_when_file_appears,
    parse_lmax,
    run_cli,
    spawn_cli,
)
from repro.core import (
    BnBParameters,
    BranchAndBound,
    ResourceBounds,
    SolveStatus,
    _native,
)
from repro.core.bounds import LB2
from repro.core import checkpoint as checkpoint_mod
from repro.core import engine as engine_mod
from repro.core.checkpoint import (
    CHECKPOINT_FORMAT,
    Checkpointer,
    StopToken,
    graceful_interrupts,
    load_checkpoint,
    problem_fingerprint,
    write_checkpoint,
)
from repro.core.selection import (
    FIFOSelection,
    LLBSelection,
    MemoryLimitedSelection,
)
from repro.core.stats import SearchStats
from repro.errors import CheckpointError
from repro.io import save_graph
from repro.obs import LiveMonitor, Observability

PROBLEM = hard_problem(seed=0)


def _fake_clock(monkeypatch, readings, then):
    """Feed ``Checkpointer.due`` these monotonic readings, then ``then``."""
    ticks = iter(readings)
    monkeypatch.setattr(
        checkpoint_mod,
        "time",
        SimpleNamespace(monotonic=lambda: next(ticks, then), time=time.time),
    )


def _same_cadence(monkeypatch, cadence):
    """Both engine tiers meet boundaries at the same explored counts."""
    monkeypatch.setattr(engine_mod, "_LOOP_CADENCE", cadence)
    monkeypatch.setattr(engine_mod, "_DRIVER_CADENCE", cadence)


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_deterministic(self):
        params = BnBParameters()
        assert problem_fingerprint(PROBLEM, params) == problem_fingerprint(
            PROBLEM, params
        )

    def test_search_shaping_parameters_change_it(self):
        base = problem_fingerprint(PROBLEM, BnBParameters.paper_lifo())
        assert base != problem_fingerprint(PROBLEM, BnBParameters.paper_llb())
        assert base != problem_fingerprint(PROBLEM, BnBParameters.paper_lb0())

    def test_problem_changes_it(self):
        params = BnBParameters()
        assert problem_fingerprint(PROBLEM, params) != problem_fingerprint(
            hard_problem(seed=4), params
        )

    def test_resource_bounds_do_not_change_it(self):
        # RB is excluded on purpose: the runbook is "resume the capped
        # run with bigger limits", which must not invalidate snapshots.
        params = BnBParameters()
        capped = params.evolve(
            resources=ResourceBounds(max_vertices=10, time_limit=1.0)
        )
        assert problem_fingerprint(PROBLEM, params) == problem_fingerprint(
            PROBLEM, capped
        )


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def _solve_capped_with_checkpoint(params, cap, path):
    capped = params.evolve(resources=ResourceBounds(max_vertices=cap))
    result = BranchAndBound(capped).solve(
        PROBLEM, checkpoint=Checkpointer(str(path), seconds=0)
    )
    return result


class TestFormat:
    def test_roundtrip_preserves_the_snapshot(self, tmp_path):
        path = tmp_path / "cp.pkl"
        result = _solve_capped_with_checkpoint(BnBParameters(), 400, path)
        assert result.status is SolveStatus.TRUNCATED
        assert result.checkpoint_path == str(path)
        snap = load_checkpoint(str(path))
        assert snap.format == CHECKPOINT_FORMAT
        assert snap.frontier
        assert snap.fingerprint == problem_fingerprint(
            PROBLEM, BnBParameters()
        )
        # The cap is checked per expansion, so the final batch of
        # children may overshoot it by at most one expansion's worth.
        assert snap.stats["generated"] <= 400 + PROBLEM.n * 2

    def test_write_is_atomic_and_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "cp.pkl"
        _solve_capped_with_checkpoint(BnBParameters(), 400, path)
        leftovers = [p for p in os.listdir(tmp_path) if p != "cp.pkl"]
        assert leftovers == []

    def test_versions_are_monotone(self, tmp_path):
        path = tmp_path / "cp.pkl"
        # The Python loop: the native driver's 32768-vertex boundary
        # would never come due under this cap.
        _solve_capped_with_checkpoint(
            BnBParameters(engine="object"), 800, path
        )
        snap = load_checkpoint(str(path))
        # explored ~200+ at cap 800, a snapshot at every boundary after
        # the first -> several periodic writes before the final one; the
        # surviving file carries the last.
        assert snap.version >= 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "nope.pkl"))

    def test_truncated_file_is_reported_corrupt(self, tmp_path):
        path = tmp_path / "cp.pkl"
        _solve_capped_with_checkpoint(BnBParameters(), 400, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(str(path))

    def test_foreign_pickle_is_rejected(self, tmp_path):
        path = tmp_path / "cp.pkl"
        path.write_bytes(pickle.dumps({"not": "a checkpoint"}))
        with pytest.raises(CheckpointError, match="not a search checkpoint"):
            load_checkpoint(str(path))

    def test_unsupported_format_version_is_rejected(self, tmp_path):
        path = tmp_path / "cp.pkl"
        _solve_capped_with_checkpoint(BnBParameters(), 400, path)
        snap = load_checkpoint(str(path))
        snap.format = "repro/checkpoint-v999"
        write_checkpoint(snap, str(path))
        with pytest.raises(CheckpointError, match="unsupported"):
            load_checkpoint(str(path))

    def test_checkpointer_validates_interval(self, tmp_path):
        for seconds in (-1.0, math.nan, math.inf):
            with pytest.raises(CheckpointError):
                Checkpointer(str(tmp_path / "cp.pkl"), seconds=seconds)

    def test_due_baselines_at_the_first_observation(self, monkeypatch):
        _fake_clock(monkeypatch, [500.0, 505.0, 510.0, 511.0, 520.0], None)
        cp = Checkpointer("unused.pkl", seconds=10)
        # A resumed run's first call must not immediately re-write what
        # it just read: the first observation only sets the baseline.
        assert cp.due() is False
        assert cp.due() is False
        assert cp.due() is True
        assert cp.due() is False
        assert cp.due() is True


# ---------------------------------------------------------------------------
# The kill-resume differential
# ---------------------------------------------------------------------------

#: ⟨B,S,E,L⟩ cells under differential test.  Kept to distinct frontier
#: disciplines (LIFO list vs. heap) and bound/branching variants so the
#: restore path is exercised for every Frontier implementation.
CELLS = [
    pytest.param(BnBParameters.paper_lifo(), id="BFn-LIFO-UDBAS-LB1"),
    pytest.param(BnBParameters.paper_llb(), id="BFn-LLB-UDBAS-LB1"),
    pytest.param(BnBParameters.paper_lb0(), id="BFn-LIFO-UDBAS-LB0"),
    pytest.param(
        BnBParameters(selection=FIFOSelection()), id="BFn-FIFO-UDBAS-LB1"
    ),
    pytest.param(BnBParameters(lower_bound=LB2()), id="BFn-LIFO-UDBAS-LB2"),
    pytest.param(
        BnBParameters(selection=MemoryLimitedSelection(cap=32)),
        id="BFn-ML32-UDBAS-LB1",
    ),
]


@pytest.mark.parametrize("params", CELLS)
def test_kill_resume_differential(params, tmp_path):
    straight = BranchAndBound(params).solve(PROBLEM)
    assert straight.stats.explored > 50, "cell too trivial to test resume"

    path = tmp_path / "cp.pkl"
    cap = max(50, straight.stats.generated // 2)
    capped = BranchAndBound(
        params.evolve(resources=ResourceBounds(max_vertices=cap))
    ).solve(PROBLEM, checkpoint=Checkpointer(str(path), seconds=0))
    assert capped.status is SolveStatus.TRUNCATED
    assert capped.checkpoint_path == str(path)

    resumed = BranchAndBound(params).solve(
        PROBLEM, resume=load_checkpoint(str(path))
    )
    assert resumed.status == straight.status
    assert resumed.best_cost == straight.best_cost
    assert resumed.proc_of == straight.proc_of
    assert resumed.start == straight.start
    # No transposition layer in these cells: the resumed run replays the
    # remaining tree exactly, so the counters match to the vertex.
    assert resumed.stats.generated == straight.stats.generated
    assert resumed.stats.explored == straight.stats.explored


def test_kill_resume_differential_dupfree(tmp_path):
    """AO cell: snapshot/restore must preserve the AOState extras.

    Runs on a seed whose allocation-ordered tree is big enough to
    truncate mid-search (seed 0's collapses in ~30 expansions under the
    allocation-aware floor).  Counter parity is exact — AO admits no
    transposition layer, so nothing is dropped from snapshots.
    """
    problem = hard_problem(seed=5)
    params = BnBParameters.dupfree()
    straight = BranchAndBound(params).solve(problem)
    assert straight.stats.explored > 50, "cell too trivial to test resume"

    path = tmp_path / "cp.pkl"
    cap = max(50, straight.stats.generated // 2)
    capped = BranchAndBound(
        params.evolve(resources=ResourceBounds(max_vertices=cap))
    ).solve(problem, checkpoint=Checkpointer(str(path), seconds=0))
    assert capped.status is SolveStatus.TRUNCATED

    resumed = BranchAndBound(params).solve(
        problem, resume=load_checkpoint(str(path))
    )
    assert resumed.status == straight.status
    assert resumed.best_cost == straight.best_cost
    assert resumed.proc_of == straight.proc_of
    assert resumed.start == straight.start
    assert resumed.stats.generated == straight.stats.generated
    assert resumed.stats.explored == straight.stats.explored


def test_kill_resume_differential_with_transposition(tmp_path):
    # The TT is deliberately not snapshotted (dropping it is sound but
    # duplicates may be re-explored), so this cell asserts the cost and
    # schedule contract only, plus the direction of the counter drift.
    params = BnBParameters().with_transposition()
    straight = BranchAndBound(params).solve(PROBLEM)
    path = tmp_path / "cp.pkl"
    cap = max(50, straight.stats.generated // 2)
    capped = BranchAndBound(
        params.evolve(resources=ResourceBounds(max_vertices=cap))
    ).solve(PROBLEM, checkpoint=Checkpointer(str(path), seconds=0))
    assert capped.status is SolveStatus.TRUNCATED

    resumed = BranchAndBound(params).solve(
        PROBLEM, resume=load_checkpoint(str(path))
    )
    assert resumed.best_cost == straight.best_cost
    assert resumed.stats.generated >= straight.stats.generated


def test_resumed_transposition_run_adds_to_the_snapshots_duplicates(
    tmp_path,
):
    # Duplicates are booked as they are pruned: the snapshot holds the
    # capped run's duplicates under pruned_duplicate and its table's
    # counters under tt, and the resumed run adds its own table's hits
    # on top of both.
    problem = hard_problem(seed=11, processors=4)
    params = BnBParameters(selection=LLBSelection()).with_transposition()
    path = tmp_path / "cp.pkl"
    capped = BranchAndBound(
        params.evolve(resources=ResourceBounds(max_vertices=900))
    ).solve(problem, checkpoint=Checkpointer(str(path), seconds=0))
    assert capped.status is SolveStatus.TRUNCATED
    snap = load_checkpoint(str(path))
    assert snap.stats["pruned_dominated"] == 0
    assert snap.stats["pruned_duplicate"] > 0

    resumed = BranchAndBound(params).solve(problem, resume=snap)
    assert resumed.stats.pruned_dominated == 0
    assert resumed.stats.tt_hits > snap.tt["tt_hits"] > 0
    assert resumed.stats.pruned_duplicate == (
        snap.stats["pruned_duplicate"]
        + resumed.stats.tt_hits - snap.tt["tt_hits"]
    )


def test_resumed_table_counters_add_to_the_first_runs(tmp_path):
    # Every duplicate prune is a table hit, across the kill as within a
    # run; a snapshot written before the tt field existed (emulated by
    # dropping it) resumes with the fresh table's counters alone.
    problem = hard_problem(seed=11, processors=4)
    params = BnBParameters(selection=LLBSelection()).with_transposition()
    path = tmp_path / "cp.pkl"
    first = BranchAndBound(
        params.evolve(resources=ResourceBounds(max_vertices=900))
    ).solve(problem, checkpoint=Checkpointer(str(path), seconds=0))
    assert first.stats.pruned_duplicate == first.stats.tt_hits > 0

    snap = load_checkpoint(str(path))
    resumed = BranchAndBound(params).solve(problem, resume=snap)
    assert resumed.stats.pruned_duplicate <= resumed.stats.tt_hits
    assert resumed.stats.tt_hits >= first.stats.tt_hits
    assert resumed.stats.tt_inserts >= first.stats.tt_inserts
    assert resumed.stats.tt_capacity == first.stats.tt_capacity
    assert resumed.stats.tt_filled <= resumed.stats.tt_capacity

    del snap.tt
    assert snap.tt is None
    fresh = BranchAndBound(params).solve(problem, resume=snap)
    assert fresh.stats.tt_hits == resumed.stats.tt_hits - first.stats.tt_hits
    assert fresh.stats.tt_capacity == first.stats.tt_capacity


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "reference"])
def test_live_samples_report_duplicates_mid_solve(fused):
    class Recorder(LiveMonitor):
        def __init__(self):
            super().__init__(interval=0.0)
            self.prunes = []

        def on_sample(self, **kw):
            taken = super().on_sample(**kw)
            if taken:
                self.prunes.append(self.bus.snapshot()["status"]["prunes"])
            return taken

    monitor = Recorder()
    params = BnBParameters(selection=LLBSelection()).with_transposition()
    result = BranchAndBound(
        params, obs=Observability(live=monitor), fused=fused
    ).solve(hard_problem(seed=11, processors=4))
    assert result.stats.pruned_duplicate > 0
    assert monitor.prunes
    assert all(p["dominated"] == 0 for p in monitor.prunes)
    assert monitor.prunes[-1]["duplicate"] > 0


def test_resume_rejects_a_different_parametrization(tmp_path):
    path = tmp_path / "cp.pkl"
    _solve_capped_with_checkpoint(BnBParameters.paper_lifo(), 400, path)
    snap = load_checkpoint(str(path))
    with pytest.raises(CheckpointError, match="does not match"):
        BranchAndBound(BnBParameters.paper_llb()).solve(PROBLEM, resume=snap)


def test_resume_rejects_a_different_problem(tmp_path):
    path = tmp_path / "cp.pkl"
    _solve_capped_with_checkpoint(BnBParameters(), 400, path)
    snap = load_checkpoint(str(path))
    with pytest.raises(CheckpointError, match="does not match"):
        BranchAndBound(BnBParameters()).solve(
            hard_problem(seed=4), resume=snap
        )


# ---------------------------------------------------------------------------
# Cooperative stop
# ---------------------------------------------------------------------------


class TestGracefulStop:
    def test_preset_token_returns_anytime_result(self):
        token = StopToken()
        token.set("test")
        result = BranchAndBound(BnBParameters()).solve(PROBLEM, stop=token)
        assert result.status is SolveStatus.INTERRUPTED
        # The EDF initial incumbent is never lost, and the open bound
        # turns the early stop into a quantified optimality gap.
        assert result.found_solution
        assert result.open_lower_bound is not None
        assert result.optimality_gap >= 0.0
        result.schedule().validate()

    def test_stop_writes_a_final_checkpoint(self, tmp_path):
        token = StopToken()
        token.set("test")
        path = tmp_path / "cp.pkl"
        result = BranchAndBound(BnBParameters()).solve(
            PROBLEM,
            stop=token,
            checkpoint=Checkpointer(str(path)),
        )
        assert result.status is SolveStatus.INTERRUPTED
        assert result.checkpoint_path == str(path)
        resumed = BranchAndBound(BnBParameters()).solve(
            PROBLEM, resume=load_checkpoint(str(path))
        )
        straight = BranchAndBound(BnBParameters()).solve(PROBLEM)
        assert resumed.best_cost == straight.best_cost
        assert resumed.stats.generated == straight.stats.generated

    def test_sigint_sets_the_token(self):
        token = StopToken()
        with graceful_interrupts(token):
            signal.raise_signal(signal.SIGINT)
            assert token.is_set()
            assert token.reason == "SIGINT"
        # Handlers restored: a fresh token context is independent.
        assert signal.getsignal(signal.SIGINT) is not None

    def test_sigterm_sets_the_token(self):
        token = StopToken()
        with graceful_interrupts(token):
            signal.raise_signal(signal.SIGTERM)
            assert token.is_set()
            assert token.reason == "SIGTERM"


# ---------------------------------------------------------------------------
# The array engine: snapshots cut on the native driver
# ---------------------------------------------------------------------------

needs_native = pytest.mark.skipif(
    not _native.native_available(), reason="native kernel unavailable"
)

#: Native-engageable parametrizations over the three frontier kinds.
NATIVE_PARAMS = [
    pytest.param(BnBParameters.paper_lifo(), id="LIFO-LB1"),
    pytest.param(BnBParameters.paper_llb(), id="LLB-LB1"),
    pytest.param(BnBParameters(selection=FIFOSelection()), id="FIFO-LB1"),
    pytest.param(BnBParameters.paper_lb0(), id="LIFO-LB0"),
]


def _array(params: BnBParameters) -> BnBParameters:
    return params.evolve(engine="array")


def _counters(stats: dict) -> dict:
    return {k: v for k, v in stats.items() if k != "elapsed"}


def _frontier(snapshot) -> list:
    return [
        (state.proc_of, state.start, lb, seq)
        for state, lb, seq in snapshot.frontier
    ]


@needs_native
def test_preset_token_interrupts_before_any_expansion():
    token = StopToken()
    token.set("test")
    result = BranchAndBound(_array(BnBParameters())).solve(PROBLEM, stop=token)
    assert result.stats.engine_path == "native"
    assert result.status is SolveStatus.INTERRUPTED
    assert result.stats.explored == 0
    assert result.stats.generated == 1
    assert result.found_solution
    assert result.open_lower_bound is not None
    result.schedule().validate()


@needs_native
@pytest.mark.parametrize("params", NATIVE_PARAMS)
def test_periodic_snapshot_matches_the_object_engine(params, monkeypatch):
    every = 100
    _same_cadence(monkeypatch, every)
    snaps = {}
    for engine in ("object", "array"):
        cp = MemoryCheckpointer(seconds=0)
        result = BranchAndBound(params.evolve(engine=engine)).solve(
            PROBLEM, checkpoint=cp
        )
        assert cp.snapshots, "cell too small for a periodic snapshot"
        snaps[engine] = (result, cp.snapshots[0])
    (obj, a), (nat, b) = snaps["object"], snaps["array"]
    assert obj.stats.engine_path == "fused"
    assert nat.stats.engine_path == "native"
    assert b.stats["explored"] == a.stats["explored"] == every
    assert _frontier(b) == _frontier(a)
    assert b.seq == a.seq
    assert _counters(b.stats) == _counters(a.stats)
    assert (b.incumbent_cost, b.found_cost) == (a.incumbent_cost, a.found_cost)
    assert (b.best_proc, b.best_start) == (a.best_proc, a.best_start)
    assert b.incumbent_source == a.incumbent_source


@needs_native
@pytest.mark.parametrize("params", NATIVE_PARAMS)
@pytest.mark.parametrize("snap_engine", ["object", "array"])
@pytest.mark.parametrize("resume_engine", ["object", "array"])
def test_resume_across_engines_reproduces_the_straight_run(
    params, snap_engine, resume_engine, monkeypatch
):
    straight = BranchAndBound(params).solve(PROBLEM)
    cp = MemoryCheckpointer(seconds=0)
    with monkeypatch.context() as mp:
        _same_cadence(mp, 150)
        BranchAndBound(params.evolve(engine=snap_engine)).solve(
            PROBLEM, checkpoint=cp
        )
    resumed = BranchAndBound(params.evolve(engine=resume_engine)).solve(
        PROBLEM, resume=cp.snapshots[0]
    )
    if resume_engine == "array":
        assert resumed.stats.engine_path == "native"
    assert resumed.best_cost == straight.best_cost
    assert resumed.proc_of == straight.proc_of
    assert resumed.stats.generated == straight.stats.generated
    assert resumed.stats.explored == straight.stats.explored


@needs_native
def test_time_limited_final_snapshot_holds_every_open_vertex(monkeypatch):
    cell = QUICK_CELLS[0]
    problem = cell.problem()
    params = _array(cell.params())
    straight = BranchAndBound(params).solve(problem)
    # A small driver cadence, so this quick cell meets several
    # boundaries, and a deterministic clock: the limit trips at the
    # fourth one.
    monkeypatch.setattr(engine_mod, "_DRIVER_CADENCE", 64)
    calls = itertools.count()
    monkeypatch.setattr(
        SearchStats,
        "time_since_start",
        lambda self: 0.0 if next(calls) < 3 else 100.0,
    )
    limited = params.evolve(resources=ResourceBounds(time_limit=50.0))
    cp = MemoryCheckpointer()
    result = BranchAndBound(limited).solve(problem, checkpoint=cp)
    monkeypatch.undo()
    assert result.stats.engine_path == "native"
    assert result.status is SolveStatus.TIMEOUT
    assert 0 < result.stats.explored < straight.stats.explored
    final = cp.snapshots[-1]
    assert len(final.frontier) > 1
    assert result.open_lower_bound == min(lb for _, lb, _ in final.frontier)
    for engine in ("object", "array"):
        resumed = BranchAndBound(cell.params().evolve(engine=engine)).solve(
            problem, resume=pickle.loads(pickle.dumps(final))
        )
        assert resumed.best_cost == straight.best_cost
        assert resumed.stats.generated == straight.stats.generated
        assert resumed.stats.explored == straight.stats.explored


@needs_native
def test_native_solve_shorter_than_the_interval_writes_no_snapshot(
    tmp_path, monkeypatch
):
    # A small driver cadence, so the solve meets many boundaries, all
    # well inside the default five-second interval.
    monkeypatch.setattr(engine_mod, "_DRIVER_CADENCE", 16)
    path = tmp_path / "cp.pkl"
    checkpoint = Checkpointer(str(path))
    result = BranchAndBound(_array(BnBParameters())).solve(
        PROBLEM, checkpoint=checkpoint
    )
    assert result.stats.engine_path == "native"
    assert result.stats.explored > 4 * 16
    assert result.status is SolveStatus.OPTIMAL
    assert checkpoint.writes == 0
    assert result.checkpoint_path is None
    assert not path.exists()


@needs_native
@pytest.mark.parametrize("params", NATIVE_PARAMS)
def test_snapshot_comes_due_at_a_driver_boundary(params, monkeypatch):
    straight = BranchAndBound(params).solve(PROBLEM)
    # The first boundary sets the baseline at t=0; every later one reads
    # t=10, so the five-second interval has passed once, at the second.
    monkeypatch.setattr(engine_mod, "_DRIVER_CADENCE", 16)
    _fake_clock(monkeypatch, [0.0], 10.0)
    cp = MemoryCheckpointer(seconds=5.0)
    result = BranchAndBound(_array(params)).solve(PROBLEM, checkpoint=cp)
    monkeypatch.undo()
    assert result.stats.engine_path == "native"
    assert cp.writes == 1
    snapshot = cp.snapshots[0]
    assert snapshot.stats["explored"] == 16
    for engine in ("object", "array"):
        resumed = BranchAndBound(params.evolve(engine=engine)).solve(
            PROBLEM, resume=pickle.loads(pickle.dumps(snapshot))
        )
        assert resumed.best_cost == straight.best_cost
        assert resumed.proc_of == straight.proc_of
        assert resumed.stats.generated == straight.stats.generated
        assert resumed.stats.explored == straight.stats.explored


# ---------------------------------------------------------------------------
# The real thing: SIGKILL a live CLI solve, resume it
# ---------------------------------------------------------------------------


def test_sigkill_mid_run_then_resume_matches_straight_run(tmp_path):
    graph_path = tmp_path / "g.json"
    save_graph(hard_graph(seed=0), graph_path)
    cp = tmp_path / "cp.pkl"

    straight = run_cli(["solve", str(graph_path), "-m", "2"])
    assert straight.returncode == 0, straight.stderr
    want = parse_lmax(straight.stdout)

    # The Python loop, slow enough for the kill to land mid-search; the
    # resume runs on the default (native) engine.
    proc = spawn_cli(
        [
            "solve", str(graph_path), "-m", "2", "--engine", "object",
            "--checkpoint", str(cp), "--checkpoint-seconds", "0",
        ]
    )
    try:
        kill_when_file_appears(proc, cp, timeout=60.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    assert cp.exists() and cp.stat().st_size > 0

    resumed = run_cli(
        ["solve", str(graph_path), "-m", "2", "--resume", str(cp)]
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "resumed:" in resumed.stdout
    assert parse_lmax(resumed.stdout) == want


#: Paper seed 13 at m=2 under LLB: a 300-vertex cap truncates the
#: search well before the optimum, on one process or on two workers.
_LLB = ["-m", "2", "--selection", "LLB"]


@pytest.fixture(scope="module")
def paper13(tmp_path_factory):
    """The graph's path and its sequential L_max."""
    path = str(tmp_path_factory.mktemp("paper13") / "g.json")
    made = run_cli(["generate", "--profile", "paper", "--seed", "13",
                    "-o", path])
    assert made.returncode == 0, made.stderr
    straight = run_cli(["solve", path, *_LLB])
    assert straight.returncode == 0, straight.stderr
    return path, parse_lmax(straight.stdout)


@pytest.mark.parametrize(
    "first,then",
    [
        (["--workers", "2"], ["--workers", "2"]),
        (["--workers", "2"], []),
        ([], ["--workers", "2"]),
    ],
    ids=["workers-to-workers", "workers-to-sequential",
         "sequential-to-workers"],
)
def test_cli_snapshot_resumes_across_workers(paper13, tmp_path, first, then):
    path, want = paper13
    cp = str(tmp_path / "cp.pkl")
    capped = run_cli(["solve", path, *_LLB, *first,
                      "--max-vertices", "300", "--checkpoint", cp])
    assert capped.returncode == 0, capped.stderr
    assert "[TRUNCATED]" in capped.stdout
    resumed = run_cli(["solve", path, *_LLB, *then, "--resume", cp])
    assert resumed.returncode == 0, resumed.stderr
    assert "resumed:" in resumed.stdout
    assert "\noptimal: " in resumed.stdout
    assert parse_lmax(resumed.stdout) == want
