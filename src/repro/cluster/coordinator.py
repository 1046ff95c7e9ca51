"""The cluster coordinator: shallow collect, dispatch, survive.

:class:`ClusterCoordinator` is the one shard supervisor of the package.
A shallow :class:`~repro.core.shards.FrontierCollector` pass decomposes
the tree, a :class:`~repro.core.shards.RetryQueue` re-queues shards
whose worker died (capped exponential backoff with decorrelated jitter)
and quarantines poison shards so the run ends TRUNCATED instead of
falsely OPTIMAL.  Workers are remote ``repro cluster worker`` processes
dialling a TCP address, or, with ``local_workers=N``
(:class:`~repro.core.parallel.ParallelBnB`), N processes the coordinator
spawns itself over socketpairs, respawning any that die.  On top of
that:

* **Leases, not pipes.**  Workers prove liveness by sending frames;
  a silent worker's lease expires and its shards go back to the queue
  (a local worker's process is terminated first).  The monotonic clock
  on the coordinator is the only clock that matters.  It also owns
  TIMELIMIT: one deadline from the moment the solve is entered, at
  which dispatch stops and busy workers are told to stop.
* **Safe incumbent broadcast.**  The broadcast bound is the CAS-min of
  every *acknowledged* cost (schedule in hand) and every cost published
  by a shard still in flight.  When a worker dies with published-but-
  unacked improvements, those publishes are dropped, the bound is
  recomputed (it may rise), and the **epoch** is bumped: retries are
  dispatched under the new epoch and ignore stale lower bounds, so a
  duplicated or delayed frame can never prune the very cost the retry
  exists to re-find.  Stale bounds at live workers are harmless — they
  were achievable costs.
* **Elastic membership.**  Workers may join mid-solve (they receive the
  problem in the welcome frame) and leave at any time; randomized work
  stealing re-balances a drained queue by revoking prefetch backlog
  from a random loaded member.  Duplicate results — a stolen shard
  finishing twice, a hung worker waking up — are deduplicated by index;
  the first result counts, identical cost either way.
* **Checkpoint-backed recovery.**  The pending + in-flight frontier is
  periodically written as a :class:`~repro.core.checkpoint.SearchCheckpoint`
  (unacknowledged shards conservatively included), so a SIGKILLed
  coordinator resumes to the same optimal cost, re-exploring at most
  what was in flight.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import time
from dataclasses import dataclass

from ..core.checkpoint import (
    Checkpointer,
    SearchCheckpoint,
    StopToken,
    problem_fingerprint,
)
from ..core.elimination import pruning_threshold
from ..core.engine import (
    BnBResult,
    BranchAndBound,
    SolveStatus,
    announce_start,
    publish,
)
from ..core.params import BnBParameters
from ..core.shards import BackoffPolicy, FrontierCollector, RetryQueue, Shard
from ..core.stats import SearchStats
from ..core.transposition import (
    PayloadCodec,
    SharedTranspositionTable,
    find_transposition,
)
from ..errors import ClusterError, ConfigurationError, TransportClosed
from ..obs import Observability
from . import protocol
from .membership import Member, MembershipTable
from .transport import SocketPairListener, TcpTransport, Transport
from .worker import run_local_worker

__all__ = ["ClusterCoordinator", "ClusterReport"]

_INF = math.inf


def _source(best_proc, best_cost, initial_ub, source) -> str:
    """Where the held schedule came from: a shard beat U, or ``source``."""
    return "search" if best_proc is not None and best_cost < initial_ub else source


@dataclass(frozen=True)
class ClusterReport:
    """How a cluster solve went (``ClusterCoordinator.last_report``)."""

    workers: int
    joins: int
    leaves: int
    lease_expiries: int
    steals: int
    shards: int
    shards_stale: int
    shard_retries: int
    quarantined: tuple
    resumed: bool
    checkpoint_writes: int
    #: Local worker processes respawned after their member was dropped.
    worker_restarts: int = 0

    def summary(self) -> str:
        extra = ""
        if self.quarantined:
            extra = f" quarantined={len(self.quarantined)}"
        return (
            f"cluster: workers={self.workers} joins={self.joins} "
            f"leaves={self.leaves} lease_expiries={self.lease_expiries} "
            f"steals={self.steals} shards={self.shards} "
            f"stale={self.shards_stale} retries={self.shard_retries}"
            f"{extra}"
        )


class _Loop:
    """Mutable state of one coordinator event loop (solve-scoped)."""

    def __init__(self, deadline: float) -> None:
        self.completed: set[int] = set()
        self.stale: set[int] = set()
        self.published: dict[int, float] = {}
        self.epoch = 0
        self.broadcast = _INF
        self.target = False
        self.interrupted = False
        self.halt = False
        #: Monotonic TIMELIMIT deadline (inf: none).
        self.deadline = deadline
        self.steals = 0
        self.shard_retries = 0
        self.quarantined: list[int] = []
        self.handshakes: list[tuple] = []  # (conn, deadline)
        self.worker_restarts = 0


class ClusterCoordinator:
    """Owns the solve; dispatches frontier shards to workers.

    ``local_workers=0`` serves remote workers joining at ``bind``;
    ``local_workers=N`` spawns N worker processes over socketpairs once
    the shallow pass leaves live shards, and binds no address.
    """

    def __init__(
        self,
        params: BnBParameters | None = None,
        *,
        bind: str = "127.0.0.1:0",
        transport: Transport | None = None,
        split_depth: int = 2,
        lease: float = 10.0,
        min_workers: int = 1,
        worker_timeout: float = 60.0,
        prefetch: int = 2,
        max_shard_attempts: int = 3,
        retry_backoff: float = 0.05,
        steal: bool = True,
        checkpoint: Checkpointer | None = None,
        resume: SearchCheckpoint | None = None,
        obs: Observability | None = None,
        stop: StopToken | None = None,
        local_workers: int = 0,
    ) -> None:
        if split_depth < 1:
            raise ConfigurationError(f"split_depth must be >= 1, got {split_depth}")
        if lease <= 0:
            raise ConfigurationError(f"lease must be > 0, got {lease}")
        if min_workers < 1:
            raise ConfigurationError(f"min_workers must be >= 1, got {min_workers}")
        if prefetch < 1:
            raise ConfigurationError(f"prefetch must be >= 1, got {prefetch}")
        if max_shard_attempts < 1:
            raise ConfigurationError(
                f"max_shard_attempts must be >= 1, got {max_shard_attempts}"
            )
        if local_workers < 0:
            raise ConfigurationError(
                f"local_workers must be >= 0, got {local_workers}"
            )
        self.params = params or BnBParameters()
        self.bind = bind
        self.transport = transport if transport is not None else TcpTransport()
        self.split_depth = split_depth
        self.lease = lease
        self.min_workers = min_workers
        self.worker_timeout = worker_timeout
        self.prefetch = prefetch
        self.max_shard_attempts = max_shard_attempts
        self.retry_backoff = retry_backoff
        self.steal = steal
        self.checkpoint = checkpoint
        self.resume = resume
        self.obs = obs
        self.stop = stop
        self.local_workers = local_workers
        #: Test-only fault plan (an object with ``match(shard, attempt)``)
        #: handed to spawned local workers.
        self.fault_plan = None
        self.last_report: ClusterReport | None = None
        #: The actual listen address (useful with port 0); set by
        #: :meth:`bind_now` or at solve time.
        self.bound_address: str | None = None
        self._listener = None

    def bind_now(self) -> str:
        """Bind the listen address immediately (idempotent).

        ``solve`` binds lazily after the shallow collect; the CLI calls
        this first so it can print the actual port (``--bind host:0``)
        before workers need it — early connections queue in the listen
        backlog until the dispatch loop starts accepting.
        """
        if self._listener is None:
            self._listener = self.transport.listen(self.bind)
            self.bound_address = self._listener.address
        return self.bound_address

    # ------------------------------------------------------------------

    def solve(self, problem) -> BnBResult:
        deadline = time.monotonic() + self.params.resources.time_limit
        tt_rule = find_transposition(self.params.dominance)
        shared_tt = None
        if tt_rule is not None and self.local_workers:
            # One lock-striped shared table for the whole solve: the
            # shallow pass seeds it, local workers prune against (and
            # feed) it.  The coordinator owns its lifetime.
            shared_tt = SharedTranspositionTable.create(
                tt_rule.table_bytes,
                PayloadCodec.for_problem(problem),
            )
            tt_rule.bind_shared(shared_tt)
        try:
            return self._solve(problem, shared_tt, deadline)
        finally:
            # Also closes a listener bind_now() opened for a solve the
            # shallow pass finished: a waiting worker sees EOF at once.
            if self._listener is not None:
                self._listener.close()
                self._listener = None
            if shared_tt is not None:
                tt_rule.bind_shared(None)
                shared_tt.close()

    def _solve(self, problem, shared_tt, deadline) -> BnBResult:
        t0 = time.perf_counter()
        params = self.params
        fingerprint = problem_fingerprint(problem, params)
        merged = SearchStats()
        shallow_engine = ("", None)
        elapsed_base = 0.0
        resumed = self.resume is not None

        if resumed:
            snap = self.resume
            snap.require_match(fingerprint)
            merged = SearchStats.from_dict(snap.stats)
            elapsed_base = merged.elapsed
            best_cost = snap.found_cost
            best_proc = snap.best_proc
            best_start = snap.best_start
            incumbent_source = snap.incumbent_source
            initial_ub = snap.initial_upper_bound
            incumbent0 = snap.incumbent_cost
            shards = [
                Shard(int(seq), state, lb, incumbent0, _INF)
                for state, lb, seq in snap.frontier
            ]
            if self.checkpoint is not None:
                self.checkpoint.resume_from(snap)
            announce_start(self.obs, problem, params, incumbent0)
        else:
            # The shallow pass is part of this solve, not a solve of its
            # own: it reports nothing, and the coordinator publishes the
            # whole solve once, at the end.
            collector = FrontierCollector(self.split_depth)
            shallow = BranchAndBound(params).solve(
                problem, dispatcher=collector
            )
            shards = collector.shards
            announce_start(
                self.obs, problem, params, shallow.initial_upper_bound
            )
            if shallow.incumbent_source == "search":
                self._trace_incumbent(
                    shallow.best_cost, shallow.stats, time.perf_counter() - t0
                )
            if (
                not shards
                or shallow.status is SolveStatus.TARGET_REACHED
                or shallow.stats.time_limit_hit
            ):
                self.last_report = ClusterReport(
                    0, 0, 0, 0, 0, len(shards), 0, 0, (), False, 0
                )
                publish(shallow, self.obs, active=len(shards))
                return shallow
            best_cost = shallow.best_cost
            best_proc = shallow.proc_of
            best_start = shallow.start
            incumbent_source = shallow.incumbent_source
            initial_ub = shallow.initial_upper_bound
            incumbent0 = min(shallow.best_cost, shallow.initial_upper_bound)
            merged.absorb(shallow.stats)
            # The tier line reports what the workers ran; the shallow
            # pass's own tier stands only if no shard result arrives.
            shallow_engine = (merged.engine_path, merged.engine_fallback)
            merged.engine_path, merged.engine_fallback = "", None

        elim = params.elimination
        threshold0 = pruning_threshold(incumbent0, params.inaccuracy)
        live = [
            s for s in shards if not elim.should_prune(s.lower_bound, threshold0)
        ]
        merged.pruned_active += len(shards) - len(live)
        budget = params.resources.max_vertices - merged.generated

        members = MembershipTable()
        loop = _Loop(deadline)
        pending = RetryQueue(
            max_attempts=self.max_shard_attempts,
            backoff=BackoffPolicy(base=self.retry_backoff, rng=random.Random()),
        )

        if live and budget > 0:
            outcome = self._run(
                problem, fingerprint, live, budget, incumbent0,
                (best_cost, best_proc, best_start),
                (initial_ub, incumbent_source),
                merged, elapsed_base, t0, members, loop, pending, resumed,
                shared_tt,
            )
            best_cost, best_proc, best_start = outcome
        elif budget <= 0:
            merged.truncated = True

        if loop.quarantined or (pending and not loop.target):
            merged.truncated = True
        # Worker stats say "interrupted" for shards the stop below cut
        # short; only the coordinator knows whether the solve was.
        merged.interrupted = loop.interrupted
        if not merged.engine_path:
            merged.engine_path, merged.engine_fallback = shallow_engine
        merged.elapsed = elapsed_base + (time.perf_counter() - t0)

        found = best_proc is not None
        status = BranchAndBound._status(params, merged, loop.target, found)
        self.last_report = ClusterReport(
            workers=members.joins,
            joins=members.joins,
            leaves=members.leaves,
            lease_expiries=members.lease_expiries,
            steals=loop.steals,
            shards=len(shards),
            shards_stale=(len(shards) - len(live)) + len(loop.stale),
            shard_retries=loop.shard_retries,
            quarantined=tuple(loop.quarantined),
            resumed=resumed,
            checkpoint_writes=(
                self.checkpoint.writes if self.checkpoint is not None else 0
            ),
            worker_restarts=loop.worker_restarts,
        )
        result = BnBResult(
            problem=problem,
            params=params,
            status=status,
            best_cost=best_cost if found else _INF,
            proc_of=best_proc,
            start=best_start,
            incumbent_source=_source(
                best_proc, best_cost, initial_ub, incumbent_source
            ),
            initial_upper_bound=initial_ub,
            stats=merged,
        )
        open_shards = len(live) - len(loop.completed) - len(loop.stale)
        publish(result, self.obs, active=open_shards)
        return result

    # ------------------------------------------------------------------

    def _trace_incumbent(self, cost, stats, elapsed) -> None:
        """Trace an accepted improvement (schedule in hand) of the solve.

        ``stats`` holds the counts merged so far.  The live bus is not
        told: it recorded the worker's bound frame as it arrived.
        """
        trace = self.obs.sink if self.obs is not None else None
        if trace is not None and trace.accepts("incumbent"):
            trace.emit(
                "incumbent",
                {
                    "generated": stats.generated,
                    "explored": stats.explored,
                    "cost": cost,
                    "elapsed": round(elapsed, 6),
                },
            )

    def _run(
        self, problem, fingerprint, live, budget, incumbent0, best, origin,
        merged, elapsed_base, t0, members: MembershipTable, loop: _Loop,
        pending: RetryQueue, resumed: bool, shared_tt,
    ):
        """The event loop; returns the final (cost, proc, start)."""
        params = self.params
        best_cost, best_proc, best_start = best
        initial_ub, incumbent_source = origin
        acked_cost = best_cost if best_proc is not None else _INF
        loop.broadcast = min(incumbent0, acked_cost)
        remaining = budget
        for s in live:
            pending.add(s)
        total = len(live)

        monitor = self.obs.live if self.obs is not None else None
        progress = self.obs.progress if self.obs is not None else None
        sink = self.obs.event_sink() if self.obs is not None else None
        metrics = self.obs.metrics if self.obs is not None else None

        def emit(kind, payload):
            if sink is not None and sink.accepts(kind):
                sink.emit(kind, payload)

        def count(name):
            if metrics is not None:
                metrics.counter(name).inc()

        if self._listener is None:
            self._listener = (
                SocketPairListener()
                if self.local_workers
                else self.transport.listen(self.bind)
            )
        listener = self._listener
        self.bound_address = listener.address
        tt_handle = shared_tt.handle() if shared_tt is not None else None
        local: dict = {}  # worker id -> live local worker process

        def spawn_local() -> None:
            worker_id = f"local-{len(local) + loop.worker_restarts}"
            child = listener.pair()
            proc = multiprocessing.Process(
                target=run_local_worker,
                args=(child, worker_id, self.fault_plan, tt_handle),
                name=worker_id,
                daemon=True,
            )
            proc.start()
            child.close()
            local[worker_id] = proc

        checkpointer = self.checkpoint
        if resumed:
            emit("resume", {"mode": "cluster", "shards": total})
        next_sample = 0.0
        loop_start = time.monotonic()
        memberless_since = loop_start
        ever_joined = False
        member_seq = 0

        def rebroadcast():
            """Push the current broadcast bound to every member."""
            for m in members:
                try:
                    m.conn.send(
                        protocol.bound_frame(loop.broadcast, loop.epoch)
                    )
                except (TransportClosed, ClusterError):
                    pass  # best-effort: a lost bound only costs pruning

        def recompute_broadcast():
            """Safe bound: acked costs + publishes of in-flight shards."""
            floor = min(incumbent0, acked_cost)
            for idx, cost in loop.published.items():
                if cost < floor:
                    floor = cost
            if floor > loop.broadcast:
                # A publisher died unacked: the bound rises, and the
                # epoch fences off its stale broadcasts so the retry
                # can re-find the lost cost.
                loop.epoch += 1
            loop.broadcast = floor

        def drop_member(member: Member, cause: str, *, expired: bool) -> None:
            members.remove(member.worker_id, expired=expired)
            proc = local.pop(member.worker_id, None)
            if proc is not None:
                # Dead, hung or cut off: it must never finish its shard.
                proc.kill()
                proc.join()
            try:
                member.conn.close()
            except Exception:
                pass
            if expired:
                count("bnb_cluster_lease_expired_total")
                emit(
                    "lease_expired",
                    {
                        "worker": member.worker_id,
                        "lease_age": round(member.lease_age(), 3),
                        "shards_held": len(member.assigned),
                    },
                )
            emit(
                "worker_leave",
                {
                    "worker": member.worker_id,
                    "cause": cause,
                    "done": member.done,
                    "shards_requeued": len(member.assigned),
                },
            )
            if monitor is not None:
                monitor.on_worker_down(member.slot, 0)
            now = time.monotonic()
            requeued = False
            for shard, attempt in member.assigned.values():
                if shard.index in loop.completed or shard.index in loop.stale:
                    continue
                if shard.index in loop.published:
                    # Published but never acknowledged: this cost's
                    # schedule died with the worker.
                    del loop.published[shard.index]
                    requeued = True
                delay = pending.requeue(shard, attempt, now)
                if delay is None:
                    loop.quarantined.append(shard.index)
                    emit(
                        "quarantine",
                        {
                            "shard": shard.index,
                            "attempts": attempt,
                            "cause": cause,
                        },
                    )
                else:
                    loop.shard_retries += 1
                    count("bnb_shard_retry_total")
                    emit(
                        "shard_retry",
                        {
                            "shard": shard.index,
                            "attempt": attempt + 1,
                            "delay": round(delay, 4),
                            "cause": cause,
                        },
                    )
            if proc is not None:
                shard, attempt = next(
                    iter(member.assigned.values()), (None, None)
                )
                count("bnb_worker_restart_total")
                emit(
                    "worker_restart",
                    {
                        "worker": member.worker_id,
                        "shard": shard.index if shard is not None else None,
                        "attempt": attempt,
                        "cause": cause,
                    },
                )
                if not loop.halt:
                    loop.worker_restarts += 1
                    spawn_local()
            member.assigned.clear()
            if requeued:
                recompute_broadcast()

        def write_snapshot(final: bool = False) -> None:
            if checkpointer is None:
                return
            frontier = [
                (s.state, s.lower_bound, s.index)
                for s, _attempt, _eligible in pending
            ]
            for m in members:
                for shard, _attempt in m.assigned.values():
                    if (
                        shard.index not in loop.completed
                        and shard.index not in loop.stale
                    ):
                        frontier.append(
                            (shard.state, shard.lower_bound, shard.index)
                        )
            stats_now = merged.as_dict()
            stats_now["elapsed"] = elapsed_base + (time.perf_counter() - t0)
            snapshot = SearchCheckpoint(
                fingerprint=fingerprint,
                frontier=frontier,
                seq=(max((idx for _s, _lb, idx in frontier), default=0) + 1),
                incumbent_cost=min(incumbent0, acked_cost),
                found_cost=acked_cost,
                best_proc=best_proc,
                best_start=best_start,
                incumbent_source=_source(
                    best_proc, best_cost, initial_ub, incumbent_source
                ),
                initial_upper_bound=initial_ub,
                stats=stats_now,
            )
            checkpointer.write(snapshot)
            emit(
                "checkpoint",
                {
                    "mode": "cluster",
                    "path": checkpointer.path,
                    "frontier": len(frontier),
                    "final": final,
                },
            )

        def handle_frame(member: Member, frame: dict) -> None:
            nonlocal best_cost, best_proc, best_start, acked_cost, remaining
            member.renew()
            kind = protocol.frame_type(frame)
            if kind == "hb":
                member.running = frame["shard"]
                member.explored = frame["explored"]
                member.vps = frame["vps"]
                if monitor is not None:
                    monitor.on_cluster_member(
                        member.slot,
                        name=member.worker_id,
                        shard=frame["shard"] if frame["shard"] >= 0 else None,
                        explored=frame["explored"],
                        vps=frame["vps"],
                        lease_age=0.0,
                        done=member.done,
                        retried=member.retried,
                        stolen=member.stolen_from,
                    )
            elif kind == "bound":
                idx, cost = frame["shard"], frame["cost"]
                if idx >= 0 and idx not in loop.completed:
                    prev = loop.published.get(idx, _INF)
                    if cost < prev:
                        loop.published[idx] = cost
                if cost < loop.broadcast:
                    loop.broadcast = cost
                    rebroadcast()
                    if monitor is not None:
                        monitor.bus.record_event(
                            "incumbent",
                            {
                                "cost": cost,
                                "elapsed": round(
                                    time.monotonic() - loop_start, 3
                                ),
                                "source": member.worker_id,
                            },
                        )
            elif kind == "result":
                if frame["fingerprint"] != fingerprint:
                    return  # straggler from another solve
                idx = frame["shard"]
                member.assigned.pop(idx, None)
                if idx in loop.completed or idx in loop.stale:
                    return  # duplicate (steal or woken hang): first wins
                loop.completed.add(idx)
                loop.published.pop(idx, None)
                member.done += 1
                wstats = frame["stats"]
                merged.absorb(wstats)
                remaining -= wstats.generated
                cost = frame["cost"]
                if frame["proc"] is not None and cost < acked_cost:
                    acked_cost = cost
                    if cost < best_cost or best_proc is None:
                        best_cost = cost
                        best_proc = frame["proc"]
                        best_start = frame["start"]
                        self._trace_incumbent(
                            cost, merged,
                            elapsed_base + (time.perf_counter() - t0),
                        )
                if frame["proc"] is not None and cost < loop.broadcast:
                    loop.broadcast = cost
                    rebroadcast()
                if frame["target"]:
                    loop.target = True
                    loop.halt = True
                if remaining <= 0:
                    merged.truncated = True
                    loop.halt = True
            elif kind == "stale":
                if frame["fingerprint"] != fingerprint:
                    return
                idx = frame["shard"]
                member.assigned.pop(idx, None)
                if idx in loop.completed or idx in loop.stale:
                    return
                loop.stale.add(idx)
                loop.published.pop(idx, None)
                member.stale += 1
                merged.pruned_active += 1
            elif kind == "bye":
                raise TransportClosed("worker said bye")

        def drain(member: Member) -> bool:
            """Pump a member's frames; False when the member died."""
            try:
                while member.conn.poll():
                    frame = member.conn.recv(timeout=0.0)
                    if frame is None:
                        break
                    handle_frame(member, frame)
            except TransportClosed as exc:
                cause = str(exc) or "connection lost"
                drop_member(member, cause, expired=False)
                return False
            return True

        def accept_new() -> None:
            nonlocal ever_joined, member_seq, memberless_since
            while True:
                try:
                    conn = listener.accept(timeout=0.0)
                except TransportClosed:
                    return
                if conn is None:
                    break
                loop.handshakes.append(
                    (conn, time.monotonic() + 10.0)
                )
            still = []
            for conn, deadline in loop.handshakes:
                done = False
                try:
                    if conn.poll():
                        frame = conn.recv(timeout=0.0)
                        if frame is not None:
                            done = True
                            worker_id = protocol.check_hello(frame)
                            if worker_id in members:
                                # A reconnect under the same id: the old
                                # link is dead, this one supersedes it.
                                drop_member(
                                    members.get(worker_id),
                                    "superseded by reconnect",
                                    expired=False,
                                )
                            conn.send(
                                protocol.welcome(
                                    fingerprint, problem, params, self.lease
                                )
                            )
                            member = members.add(worker_id, conn)
                            member.slot = member_seq
                            member_seq += 1
                            ever_joined = True
                            emit(
                                "worker_join",
                                {
                                    "worker": worker_id,
                                    "members": len(members),
                                },
                            )
                            count("bnb_cluster_join_total")
                except TransportClosed:
                    done = True
                    conn.close()
                except ClusterError as exc:
                    done = True
                    try:
                        conn.send(protocol.reject(str(exc)))
                    except (TransportClosed, ClusterError):
                        pass
                    try:
                        conn.close()
                    except Exception:
                        pass
                if not done:
                    if time.monotonic() > deadline:
                        try:
                            conn.close()
                        except Exception:
                            pass
                    else:
                        still.append((conn, deadline))
            loop.handshakes = still

        def dispatch() -> None:
            if loop.halt:
                return
            now = time.monotonic()
            for member in members:
                while len(member.assigned) < self.prefetch:
                    task = pending.pop_eligible(now)
                    if task is None:
                        return
                    shard, attempt = task
                    try:
                        member.conn.send(
                            protocol.shard_frame(
                                shard, attempt, remaining,
                                loop.broadcast, loop.epoch, fingerprint,
                            )
                        )
                    except (TransportClosed, ClusterError):
                        # Give the shard back untouched (the worker
                        # never held it) and bury the member.
                        pending.add(shard, attempt)
                        drop_member(member, "send failed", expired=False)
                        break
                    member.assigned[shard.index] = (shard, attempt)

        def try_steal() -> None:
            if not self.steal or loop.halt or pending:
                return
            idle = [m for m in members if not m.assigned]
            victims = [m for m in members if len(m.assigned) >= 2]
            if not idle or not victims:
                return
            thief = idle[0]
            victim = random.choice(victims)
            idx, (shard, attempt) = list(victim.assigned.items())[-1]
            try:
                thief.conn.send(
                    protocol.shard_frame(
                        shard, attempt, remaining,
                        loop.broadcast, loop.epoch, fingerprint,
                    )
                )
            except (TransportClosed, ClusterError):
                drop_member(thief, "send failed", expired=False)
                return
            del victim.assigned[idx]
            victim.stolen_from += 1
            thief.assigned[idx] = (shard, attempt)
            loop.steals += 1
            count("bnb_cluster_steal_total")
            emit(
                "steal",
                {
                    "shard": idx,
                    "victim": victim.worker_id,
                    "thief": thief.worker_id,
                },
            )
            try:
                victim.conn.send(protocol.revoke(idx))
            except (TransportClosed, ClusterError):
                pass  # revoke is advisory; duplicates dedupe anyway

        try:
            if self.stop is None or not self.stop.is_set():
                for _ in range(min(self.local_workers, total)):
                    spawn_local()
            while True:
                accounted = (
                    len(loop.completed)
                    + len(loop.stale)
                    + len(loop.quarantined)
                )
                if accounted >= total or loop.halt:
                    break
                if self.stop is not None and self.stop.is_set():
                    loop.interrupted = True
                    break
                now = time.monotonic()
                if now >= loop.deadline:
                    # The exit path below sends every member a stop.
                    merged.time_limit_hit = True
                    break
                accept_new()
                for member in list(members):
                    drain(member)
                for member in members.expired(self.lease):
                    drop_member(member, "lease expired", expired=True)
                if len(members) == 0:
                    if now - memberless_since > self.worker_timeout:
                        if not ever_joined:
                            raise ClusterError(
                                f"no worker joined within "
                                f"{self.worker_timeout}s"
                            )
                        # Every worker is gone and none came back:
                        # truncate rather than spin forever.
                        while True:
                            task = pending.pop_eligible(_INF)
                            if task is None:
                                break
                            loop.quarantined.append(task[0].index)
                            emit(
                                "quarantine",
                                {
                                    "shard": task[0].index,
                                    "attempts": task[1],
                                    "cause": "no workers left",
                                },
                            )
                        break
                else:
                    memberless_since = now
                if len(members) >= self.min_workers or loop.completed:
                    dispatch()
                    try_steal()
                if checkpointer is not None and checkpointer.due():
                    write_snapshot()
                if (monitor is not None or progress is not None) and (
                    now >= next_sample
                ):
                    next_sample = now + (
                        monitor.interval
                        if monitor is not None
                        else progress.interval
                    )
                    open_lb = pending.min_lower_bound()
                    for m in members:
                        for shard, _attempt in m.assigned.values():
                            if open_lb is None or shard.lower_bound < open_lb:
                                open_lb = shard.lower_bound
                    inc = loop.broadcast
                    gap = None
                    if open_lb is not None and not math.isinf(inc):
                        gap = max(0.0, inc - open_lb)
                    if monitor is not None:
                        for m in members:
                            monitor.on_cluster_member(
                                m.slot,
                                name=m.worker_id,
                                shard=m.running if m.running >= 0 else None,
                                explored=m.explored,
                                vps=m.vps,
                                lease_age=m.lease_age(),
                                done=m.done,
                                retried=m.retried,
                                stolen=m.stolen_from,
                            )
                        _, vps_total = monitor.bus.worker_totals()
                        monitor.bus.update(
                            phase="solving",
                            incumbent=None if math.isinf(inc) else inc,
                            open_lower_bound=open_lb,
                            gap=gap,
                            vps=round(vps_total, 1),
                            workers_alive=len(members),
                            queue_depth=len(pending),
                            shards_done=len(loop.completed),
                            explored=merged.explored,
                            generated=merged.generated,
                            elapsed=round(
                                elapsed_base + time.perf_counter() - t0, 3
                            ),
                            cluster={
                                "members": len(members),
                                "joins": members.joins,
                                "leaves": members.leaves,
                                "lease_expiries": members.lease_expiries,
                                "steals": loop.steals,
                                "retries": loop.shard_retries,
                            },
                        )
                        monitor.bus.add_sample(
                            elapsed_base + time.perf_counter() - t0,
                            gap,
                            vps_total,
                        )
                    if progress is not None:
                        progress.maybe_emit(
                            explored=merged.explored,
                            generated=merged.generated,
                            active=len(pending),
                            incumbent=inc,
                            gap=gap,
                            workers_alive=len(members),
                        )
                # The accept timeout doubles as the loop tick (a
                # socketpair listener also wakes on worker frames).
                conn = listener.accept(timeout=0.005)
                if conn is not None:
                    loop.handshakes.append((conn, time.monotonic() + 10.0))
        finally:
            write_snapshot(final=True)
            for conn, _deadline in loop.handshakes:
                try:
                    conn.close()
                except Exception:
                    pass
            loop.handshakes = []
            for member in members:
                try:
                    member.conn.send(protocol.stop_frame())
                except (TransportClosed, ClusterError):
                    pass
            deadline = time.monotonic() + 1.0
            for member in members:
                try:
                    while time.monotonic() < deadline:
                        frame = member.conn.recv(
                            timeout=max(0.0, deadline - time.monotonic())
                        )
                        if frame is None:
                            break
                        kind = protocol.frame_type(frame)
                        if kind == "result":
                            # A shard the stop cut short: keep its
                            # counters and schedule.
                            handle_frame(member, frame)
                        elif kind == "bye":
                            break
                except (TransportClosed, ClusterError):
                    pass
                try:
                    member.conn.close()
                except Exception:
                    pass
            for proc in local.values():
                proc.join(timeout=1.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join()
        return best_cost, best_proc, best_start
