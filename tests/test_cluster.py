"""The cluster failure matrix, driven through the in-memory transport.

Every scenario asserts *parity*: the distributed solve must land on the
same status and (to 1e-9) the same optimal cost as the single-process
:class:`BranchAndBound` on the same instance — crashes, hangs,
partitions, duplicate frames and elastic membership included.  The one
deliberate exception is the poison-shard scenario, where the contract
is the opposite: after quarantine the run must *never* claim OPTIMAL.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import pytest

from repro.cluster import protocol as protocol_mod
from repro.cluster import worker as worker_mod
from repro.cluster import (
    ClusterCoordinator,
    ClusterWorker,
    LinkFaults,
    MemoryTransport,
    TcpTransport,
)
from repro.core import (
    LB0,
    LB2,
    BnBParameters,
    BranchAndBound,
    LIFOSelection,
    LLBSelection,
    ResourceBounds,
    SolveStatus,
)
from repro.core import engine as engine_mod
from repro.core.checkpoint import Checkpointer, StopToken, load_checkpoint
from repro.core.shards import FrontierCollector
from repro.errors import CheckpointError
from repro.obs import LiveMonitor, MemorySink, Observability

from faultlib import (
    HARD_SEEDS,
    FaultPlan,
    ShardFault,
    assert_cluster_parity,
    hard_problem,
    run_cluster,
)

PROBLEMS = {seed: hard_problem(seed) for seed in HARD_SEEDS}
REFERENCE = {
    seed: BranchAndBound(BnBParameters()).solve(problem)
    for seed, problem in PROBLEMS.items()
}


def crash_plan(attempts=(1,), kind="crash", shard=-1, **kw):
    """A plan that kills the worker running ``shard`` at each attempt.

    Giving the *same* shard-targeted plan to every worker makes the
    drill deterministic: whichever worker happens to win the targeted
    shard dies, the retry (a different attempt number) completes.
    """
    return FaultPlan(
        tuple(
            ShardFault(kind=kind, shard=shard, attempt=a, **kw)
            for a in attempts
        )
    )


# ---------------------------------------------------------------------------
# Clean runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", HARD_SEEDS)
def test_clean_cluster_matches_sequential(seed):
    result, coord = run_cluster(PROBLEMS[seed], workers=2)
    assert_cluster_parity(result, REFERENCE[seed])
    report = coord.last_report
    assert report.joins == 2
    assert not report.quarantined
    assert report.shards + 0 >= 1


@pytest.mark.parametrize(
    "params",
    [
        BnBParameters(selection=LLBSelection()),
        BnBParameters(lower_bound=LB2()),
        BnBParameters(lower_bound=LB0()),
        BnBParameters(selection=LIFOSelection(), lower_bound=LB2()),
    ],
    ids=["S=LLB", "L=LB2", "L=LB0", "S=LIFO,L=LB2"],
)
def test_parameter_sweep_parity(params):
    """Complete-search ⟨B,S,E,L⟩ points all land on the same optimum."""
    seed = HARD_SEEDS[0]
    reference = BranchAndBound(params).solve(PROBLEMS[seed])
    result, _coord = run_cluster(PROBLEMS[seed], params, workers=2)
    assert_cluster_parity(result, reference)


def test_single_worker_cluster():
    seed = HARD_SEEDS[0]
    result, coord = run_cluster(PROBLEMS[seed], workers=1)
    assert_cluster_parity(result, REFERENCE[seed])
    assert coord.last_report.steals == 0  # nobody to steal from


@pytest.mark.parametrize(
    "worker_kwargs",
    [{}, [{"max_shards": 1}, {}]],
    ids=["stay", "one-leaves-early"],
)
def test_table_counters_sum_the_shallow_pass_and_every_shard(
    monkeypatch, worker_kwargs
):
    """Remote workers search each shard on a private table; the result's
    ``tt_*`` event counters are the shallow pass's plus every shard's,
    also those of a worker that leaves after its first shard, and its
    ``tt_filled`` is the fullest single table's."""
    seed = HARD_SEEDS[0]
    searched = []
    real_solve = BranchAndBound.solve

    def recording(self, problem, *args, **kwargs):
        result = real_solve(self, problem, *args, **kwargs)
        searched.append(result.stats)
        return result

    monkeypatch.setattr(BranchAndBound, "solve", recording)
    result, coord = run_cluster(
        PROBLEMS[seed],
        BnBParameters().with_transposition(),
        workers=2,
        worker_kwargs=worker_kwargs,
        # Both workers get a first shard; none is searched twice.
        coordinator_kwargs={"steal": False, "min_workers": 2, "prefetch": 1},
    )
    assert_cluster_parity(result, REFERENCE[seed])
    shallow, shards = searched[0], searched[1:]
    assert shards and coord.last_report.shards >= len(shards)
    for key in ("tt_inserts", "tt_hits", "tt_misses"):
        assert getattr(result.stats, key) == sum(
            getattr(s, key) for s in searched
        ), key
    assert result.stats.tt_filled == max(s.tt_filled for s in searched)
    assert result.stats.tt_inserts > shallow.tt_inserts
    assert result.stats.tt_capacity == shallow.tt_capacity > 0


def test_listener_closes_when_the_shallow_pass_finishes():
    """A worker waiting on a solve the shallow pass finished is let go."""
    problem = PROBLEMS[HARD_SEEDS[0]]
    coord = ClusterCoordinator(None, split_depth=problem.n + 1)
    address = coord.bind_now()
    connected = threading.Event()

    class Signalling(TcpTransport):
        def connect(self, address):
            conn = super().connect(address)
            connected.set()
            return conn

    worker = ClusterWorker(
        address, transport=Signalling(), connect_timeout=10.0
    )
    shards = []
    thread = threading.Thread(
        target=lambda: shards.append(worker.run()), daemon=True
    )
    thread.start()
    assert connected.wait(10.0)
    coord.solve(problem)
    assert coord.last_report.shards == 0
    thread.join(timeout=0.5)
    assert not thread.is_alive()
    assert shards == [0]


def test_heartbeats_carry_a_windowed_vps():
    monitor = LiveMonitor(interval=0.0)
    seed = HARD_SEEDS[0]
    result, _coord = run_cluster(
        PROBLEMS[seed],
        workers=2,
        # Each poll sleeps a whole heartbeat interval (lease / 3), so
        # every poll sends a heartbeat whose window holds that poll.
        worker_kwargs={"poll_delay": 0.1},
        coordinator_kwargs=dict(
            lease=0.3, obs=Observability(live=monitor)
        ),
    )
    assert_cluster_parity(result, REFERENCE[seed])
    history = monitor.bus.snapshot()["history"]
    assert any(point["vps"] > 0 for point in history)


def test_native_heartbeats_rate_the_engines_explored_count(monkeypatch):
    # The native driver's boundaries lie far more than 64 explored
    # vertices apart, so a heartbeat must rate the engine's own explored
    # count.  The worker's clock is recorded, making the check exact.
    monkeypatch.setattr(engine_mod, "_DRIVER_CADENCE", 16)

    class Clock:
        now = 0.0
        sleep = staticmethod(time.sleep)

        @classmethod
        def monotonic(cls):
            cls.now = time.monotonic()
            return cls.now

    monkeypatch.setattr(worker_mod, "time", Clock)
    beats = []
    real_heartbeat = protocol_mod.heartbeat

    def heartbeat(shard_index=-1, explored=0, vps=0.0):
        beats.append((Clock.now, shard_index, explored, vps))
        return real_heartbeat(shard_index, explored, vps)

    monkeypatch.setattr(protocol_mod, "heartbeat", heartbeat)
    seed = HARD_SEEDS[0]
    result, _coord = run_cluster(
        PROBLEMS[seed],
        BnBParameters(engine="array"),
        workers=1,
        # Each poll sleeps a whole heartbeat interval (its 0.05 s
        # floor), so every poll sends a heartbeat.
        worker_kwargs={"poll_delay": 0.05},
        coordinator_kwargs=dict(lease=0.15),
    )
    assert_cluster_parity(result, REFERENCE[seed])
    pairs = [
        (a, b) for a, b in zip(beats, beats[1:]) if a[1] == b[1] >= 0
    ]
    assert pairs
    for (t0, _, explored0, _), (t1, _, explored1, vps) in pairs:
        # Consecutive boundaries of the driver, not of the Python loop.
        assert explored1 - explored0 == 16
        assert vps == pytest.approx((explored1 - explored0) / (t1 - t0))


# ---------------------------------------------------------------------------
# Worker death
# ---------------------------------------------------------------------------


def test_worker_crash_between_shards_is_retried():
    seed = HARD_SEEDS[0]
    result, coord = run_cluster(
        PROBLEMS[seed],
        workers=3,
        worker_kwargs={"fault_plan": crash_plan(shard=0)},
    )
    assert_cluster_parity(result, REFERENCE[seed])
    report = coord.last_report
    assert report.leaves >= 1  # the crash surfaced as a membership event
    assert report.shard_retries >= 1  # and its shard was re-queued
    assert not report.quarantined


def test_worker_crash_mid_shard_is_retried():
    seed = HARD_SEEDS[1]
    result, coord = run_cluster(
        PROBLEMS[seed],
        workers=3,
        worker_kwargs={
            "fault_plan": crash_plan(
                kind="crash-mid", shard=2, after_polls=1
            )
        },
        # Every depth-1 shard of this instance explores past the
        # 64-vertex poll cadence even under the optimal incumbent, so
        # the mid-search crash fires no matter who wins shard 2.
        coordinator_kwargs=dict(split_depth=1),
    )
    assert_cluster_parity(result, REFERENCE[seed])
    assert coord.last_report.leaves >= 1
    assert coord.last_report.shard_retries >= 1


def test_status_worker_rows_count_every_retry():
    seed = HARD_SEEDS[0]
    monitor = LiveMonitor(interval=0.0)
    result, coord = run_cluster(
        PROBLEMS[seed],
        workers=2,
        worker_kwargs=[{"fault_plan": crash_plan()}, {}],
        coordinator_kwargs=dict(obs=Observability(live=monitor)),
    )
    assert_cluster_parity(result, REFERENCE[seed])
    retries = coord.last_report.shard_retries
    assert retries >= 1
    rows = monitor.bus.snapshot()["workers"]
    assert sum(row["retried"] for row in rows) == retries


def test_poison_shard_quarantine_never_claims_optimal():
    """When every attempt dies, truncate honestly — never OPTIMAL."""
    seed = HARD_SEEDS[0]
    plan = crash_plan(attempts=(1, 2, 3))
    result, coord = run_cluster(
        PROBLEMS[seed],
        workers=3,
        worker_kwargs={"fault_plan": plan},
        coordinator_kwargs=dict(worker_timeout=1.0, max_shard_attempts=3),
    )
    report = coord.last_report
    assert report.quarantined  # at least one shard was given up on
    assert result.status not in (SolveStatus.OPTIMAL, SolveStatus.NEAR_OPTIMAL)
    assert result.stats.truncated
    # The schedule it does return is still the honest incumbent: no
    # better than the reference optimum, possibly worse.
    if result.proc_of is not None:
        assert result.best_cost >= REFERENCE[seed].best_cost - 1e-9


def test_hung_worker_lease_expires_and_shard_is_reassigned():
    seed = HARD_SEEDS[0]
    result, coord = run_cluster(
        PROBLEMS[seed],
        workers=2,
        worker_kwargs=[
            {"fault_plan": crash_plan(kind="hang", hang_seconds=1.5)},
            {},
        ],
        coordinator_kwargs=dict(lease=0.4),
    )
    assert_cluster_parity(result, REFERENCE[seed])
    report = coord.last_report
    assert report.lease_expiries >= 1
    assert report.shard_retries >= 1


# ---------------------------------------------------------------------------
# Network faults
# ---------------------------------------------------------------------------


def test_lost_bound_broadcasts_do_not_break_parity():
    """Dropping every incumbent broadcast costs pruning, never soundness."""
    seed = HARD_SEEDS[0]
    net = MemoryTransport()
    faults = LinkFaults(
        script=lambda d, i, f: "drop" if f["t"] == "bound" else "ok"
    )
    result, coord = run_cluster(
        PROBLEMS[seed],
        workers=2,
        transport=net,
        worker_kwargs=[{"transport": net.with_faults(faults)}, {}],
    )
    assert_cluster_parity(result, REFERENCE[seed])
    assert not coord.last_report.quarantined


def test_duplicate_frames_are_deduplicated():
    seed = HARD_SEEDS[0]
    net = MemoryTransport()
    faults = LinkFaults(
        script=lambda d, i, f: "dup" if f["t"] in ("shard", "result") else "ok"
    )
    result, coord = run_cluster(
        PROBLEMS[seed],
        workers=2,
        transport=net,
        worker_kwargs=[{"transport": net.with_faults(faults)}, {}],
    )
    assert_cluster_parity(result, REFERENCE[seed])
    assert faults.duplicated >= 1


def test_delayed_frames_do_not_break_parity():
    seed = HARD_SEEDS[1]
    net = MemoryTransport()
    faults = LinkFaults(script=lambda d, i, f: 0.02)
    result, _coord = run_cluster(
        PROBLEMS[seed],
        workers=2,
        transport=net,
        worker_kwargs=[{"transport": net.with_faults(faults)}, {}],
    )
    assert_cluster_parity(result, REFERENCE[seed])


def test_partition_severs_worker_and_work_is_reassigned():
    """A mid-solve partition looks like a hang: lease expiry reclaims."""
    seed = HARD_SEEDS[0]
    net = MemoryTransport()
    faults = LinkFaults()

    def sever(d, i, f):
        # Deliver the handshake and the first completed-shard result,
        # then cut the link: the worker's prefetched backlog is now
        # stranded behind the partition and must be lease-reclaimed.
        if d == "w2c" and f["t"] == "result":
            faults.partitioned = True
        return "ok"

    faults.script = sever
    result, coord = run_cluster(
        PROBLEMS[seed],
        workers=2,
        worker_kwargs=[
            {"transport": net.with_faults(faults), "poll_delay": 0.02},
            {},
        ],
        transport=net,
        # No stealing: the stranded backlog must come back via lease
        # expiry, not get quietly rescued by the healthy worker.
        coordinator_kwargs=dict(lease=0.4, steal=False),
    )
    assert_cluster_parity(result, REFERENCE[seed])
    report = coord.last_report
    assert report.lease_expiries >= 1
    assert report.leaves >= 1


# ---------------------------------------------------------------------------
# Elastic membership
# ---------------------------------------------------------------------------


def test_voluntary_leave_mid_solve():
    """A worker that serves one shard and quits must not lose work."""
    seed = HARD_SEEDS[0]
    result, coord = run_cluster(
        PROBLEMS[seed],
        workers=2,
        worker_kwargs=[{"max_shards": 1}, {}],
    )
    assert_cluster_parity(result, REFERENCE[seed])
    assert coord.last_report.leaves >= 1


def test_late_join_mid_solve():
    seed = HARD_SEEDS[0]
    problem = PROBLEMS[seed]
    net = MemoryTransport()
    address = "mem://coordinator"
    coord = ClusterCoordinator(
        None, bind=address, transport=net, lease=2.0, retry_backoff=0.001
    )
    early = ClusterWorker(
        address, transport=net, worker_id="early", poll_delay=0.05
    )
    late = ClusterWorker(
        address, transport=net, worker_id="late", connect_timeout=20.0
    )

    def join_late():
        time.sleep(0.3)
        try:
            late.run()
        except Exception:
            pass  # solve may already be over; a no-show is not a failure

    threads = [
        threading.Thread(target=early.run, daemon=True),
        threading.Thread(target=join_late, daemon=True),
    ]
    for t in threads:
        t.start()
    try:
        result = coord.solve(problem)
    finally:
        for t in threads:
            t.join(timeout=60.0)
    assert_cluster_parity(result, REFERENCE[seed])
    assert coord.last_report.joins >= 1


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------


def test_interrupted_coordinator_resumes_to_same_cost(tmp_path):
    seed = HARD_SEEDS[0]
    problem = PROBLEMS[seed]
    path = str(tmp_path / "cluster.ckpt")

    # Phase 1: a coordinator interrupted before dispatching anything
    # still writes a final snapshot holding the entire shard frontier.
    token = StopToken()
    token.set("test interrupt")
    coord = ClusterCoordinator(
        None,
        bind="mem://phase1",
        transport=MemoryTransport(),
        checkpoint=Checkpointer(path, seconds=0),
        worker_timeout=5.0,
        stop=token,
    )
    partial = coord.solve(problem)
    assert partial.stats.interrupted
    assert partial.status is not SolveStatus.OPTIMAL

    # Phase 2: a fresh coordinator + fresh workers resume the snapshot
    # and land on the sequential optimum, snapshotting at every loop
    # tick after the first into the same file.
    snap = load_checkpoint(path)
    assert snap.frontier  # the interrupted frontier survived
    result, coord2 = run_cluster(
        problem,
        workers=2,
        coordinator_kwargs=dict(
            resume=snap, checkpoint=Checkpointer(path, seconds=0)
        ),
    )
    assert_cluster_parity(result, REFERENCE[seed])
    assert coord2.last_report.resumed
    # Periodic snapshots besides the final one, and the version sequence
    # continues from the resumed snapshot's.
    writes = coord2.last_report.checkpoint_writes
    assert writes >= 2
    assert load_checkpoint(path).version == snap.version + writes


@pytest.mark.parametrize("seed", HARD_SEEDS)
def test_snapshot_records_the_upper_bound_and_its_source(seed, tmp_path):
    # A snapshot holding U's schedule says so: the resumed result names
    # the same source and U as the sequential run.
    problem = PROBLEMS[seed]
    reference = REFERENCE[seed]
    path = str(tmp_path / "cluster.ckpt")
    token = StopToken()
    token.set("test interrupt")
    ClusterCoordinator(
        None,
        bind="mem://phase1",
        transport=MemoryTransport(),
        checkpoint=Checkpointer(path, seconds=0),
        stop=token,
    ).solve(problem)
    snap = load_checkpoint(path)
    assert snap.initial_upper_bound == reference.initial_upper_bound
    assert snap.incumbent_source == reference.incumbent_source

    for resumed in (
        BranchAndBound(BnBParameters()).solve(problem, resume=snap),
        run_cluster(
            problem, workers=1, coordinator_kwargs=dict(resume=snap)
        )[0],
    ):
        assert resumed.best_cost == reference.best_cost
        assert resumed.incumbent_source == reference.incumbent_source
        assert resumed.initial_upper_bound == reference.initial_upper_bound


def test_resume_rejects_mismatched_problem(tmp_path):
    path = str(tmp_path / "cluster.ckpt")
    token = StopToken()
    token.set("test interrupt")
    ClusterCoordinator(
        None,
        bind="mem://phase1",
        transport=MemoryTransport(),
        checkpoint=Checkpointer(path),
        stop=token,
    ).solve(PROBLEMS[HARD_SEEDS[0]])
    snap = load_checkpoint(path)
    coord = ClusterCoordinator(
        None, bind="mem://phase2", transport=MemoryTransport(), resume=snap
    )
    with pytest.raises(CheckpointError, match="does not match"):
        coord.solve(PROBLEMS[HARD_SEEDS[1]])


def test_resumed_time_limit_counts_the_snapshots_elapsed(tmp_path):
    # One rule for a resumed TIMELIMIT on the engine and the coordinator:
    # the time spent before the restart counts.
    problem = PROBLEMS[HARD_SEEDS[0]]
    path = str(tmp_path / "cluster.ckpt")
    token = StopToken()
    token.set("test interrupt")
    ClusterCoordinator(
        None,
        bind="mem://phase1",
        transport=MemoryTransport(),
        checkpoint=Checkpointer(path),
        stop=token,
    ).solve(problem)
    snap = load_checkpoint(path)
    snap.stats["elapsed"] = 5.0
    params = BnBParameters(resources=ResourceBounds(time_limit=1.0))
    for resumed in (
        BranchAndBound(params).solve(problem, resume=snap),
        ClusterCoordinator(params, local_workers=2, resume=snap).solve(
            problem
        ),
    ):
        assert resumed.status is SolveStatus.TIMEOUT
        assert resumed.stats.elapsed >= 5.0
        assert resumed.open_lower_bound <= REFERENCE[HARD_SEEDS[0]].best_cost


# ---------------------------------------------------------------------------
# Anytime results: the engine's stops, open bound and final snapshot
# ---------------------------------------------------------------------------

#: Hard seed 11 on four processors under LLB on the Python loop: about
#: 2 s sequentially, long enough for a 0.3 s deadline or a 900-vertex
#: cap to cut it short (the native driver finishes it first).
ANYTIME_PROBLEM = hard_problem(seed=11, processors=4)
LLB = BnBParameters(selection=LLBSelection(), engine="object")


@pytest.fixture(scope="module")
def anytime_optimum():
    result = BranchAndBound(LLB).solve(ANYTIME_PROBLEM)
    assert result.status is SolveStatus.OPTIMAL
    return result.best_cost


@pytest.mark.parametrize(
    "bounds, status, kind",
    [
        (ResourceBounds(time_limit=0.3), SolveStatus.TIMEOUT, "TIMELIMIT"),
        (ResourceBounds(max_vertices=900), SolveStatus.TRUNCATED, "MAXVERT"),
    ],
    ids=["time-limit", "vertex-cap"],
)
def test_stopped_cluster_solve_is_an_engine_anytime_result(
    bounds, status, kind, anytime_optimum, tmp_path
):
    path = str(tmp_path / "cluster.ckpt")
    sink = MemorySink()
    result = ClusterCoordinator(
        replace(LLB, resources=bounds),
        local_workers=2,
        checkpoint=Checkpointer(path),
        obs=Observability(sink=sink),
    ).solve(ANYTIME_PROBLEM)
    assert result.status is status
    # The open shards bound the optimum from below.
    assert result.open_lower_bound is not None
    assert result.open_lower_bound <= anytime_optimum
    assert result.optimality_gap is not None
    assert [e["kind"] for e in sink.of_kind("resource")] == [kind]
    # The final snapshot is the engine's: its event, its path, and a
    # frontier the result's bound is read from.
    assert result.checkpoint_path == path
    final = sink.of_kind("checkpoint")[-1]
    assert final["final"] and final["path"] == path
    assert final["explored"] == result.stats.explored
    snap = load_checkpoint(path)
    assert snap.frontier
    assert min(lb for _s, lb, _i in snap.frontier) == result.open_lower_bound


def test_shallow_pass_cut_short_ends_the_solve(tmp_path):
    # A vertex cap inside the shallow pass leaves open vertices that no
    # shard holds: the shards alone would resume to a false OPTIMAL, so
    # none is snapshotted, and the open bound counts them too.
    params = replace(LLB, resources=ResourceBounds(max_vertices=44))
    collector = FrontierCollector(3)
    shallow = BranchAndBound(params).solve(
        ANYTIME_PROBLEM, dispatcher=collector
    )
    assert shallow.status is SolveStatus.TRUNCATED and collector.shards
    path = tmp_path / "cluster.ckpt"
    sink = MemorySink()
    result = ClusterCoordinator(
        params,
        local_workers=2,
        split_depth=3,
        checkpoint=Checkpointer(str(path)),
        obs=Observability(sink=sink),
    ).solve(ANYTIME_PROBLEM)
    assert result.status is SolveStatus.TRUNCATED
    assert result.open_lower_bound == min(
        shallow.open_lower_bound, *(s.lower_bound for s in collector.shards)
    )
    assert result.checkpoint_path is None and not path.exists()
    assert [e["kind"] for e in sink.of_kind("resource")] == ["MAXVERT"]


def test_resumed_cluster_table_counters_add_to_the_snapshots(
    anytime_optimum, tmp_path
):
    # A capped solve under a transposition layer, then a resume: every
    # duplicate prune of both runs is a table hit.
    params = LLB.with_transposition()
    path = str(tmp_path / "cluster.ckpt")
    capped = ClusterCoordinator(
        replace(params, resources=ResourceBounds(max_vertices=900)),
        local_workers=2,
        checkpoint=Checkpointer(path, seconds=0),
    ).solve(ANYTIME_PROBLEM)
    assert capped.status is SolveStatus.TRUNCATED
    assert capped.stats.pruned_duplicate <= capped.stats.tt_hits
    snap = load_checkpoint(path)
    assert snap.tt["tt_hits"] == capped.stats.tt_hits
    resumed = ClusterCoordinator(params, local_workers=2, resume=snap).solve(
        ANYTIME_PROBLEM
    )
    assert resumed.status is SolveStatus.OPTIMAL
    assert resumed.best_cost == pytest.approx(anytime_optimum, abs=1e-9)
    assert resumed.stats.tt_hits >= capped.stats.tt_hits
    assert resumed.stats.pruned_duplicate <= resumed.stats.tt_hits
