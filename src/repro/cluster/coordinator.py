"""The cluster coordinator: shallow collect, dispatch, survive.

:class:`ClusterCoordinator` is the one shard supervisor of the package.
A shallow :class:`~repro.core.shards.FrontierCollector` pass decomposes
the tree, a :class:`~repro.core.shards.RetryQueue` re-queues shards
whose worker died (capped exponential backoff with decorrelated jitter)
and quarantines poison shards so the run ends TRUNCATED instead of
falsely OPTIMAL.  Workers are remote ``repro cluster worker`` processes
dialling a TCP address, or, with ``local_workers=N`` (``repro solve
--workers N``), N processes the coordinator spawns itself over
socketpairs, respawning any that die.  On top of that:

* **Leases, not pipes.**  Workers prove liveness by sending frames;
  a silent worker's lease expires and its shards go back to the queue
  (a local worker's process is terminated first).  The monotonic clock
  on the coordinator is the only clock that matters.
* **The engine's boundary and wrap-up.**  Each loop tick services one
  :class:`~repro.core.boundary.Boundary` over the merged counters with
  the open shards as its frontier (stop token, limits, checkpoints); at
  a stop, busy workers are told to stop, and the engine's anytime
  wrap-up reports the open lower bound and writes the final snapshot.
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
* **Checkpoint-backed recovery.**  A snapshot holds every open shard at
  its root bound (in-flight ones conservatively included), so a
  SIGKILLed coordinator resumes to the same optimal cost, re-exploring
  at most what was in flight.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import time
from dataclasses import dataclass, replace

from ..core.boundary import Boundary
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
    announce_resume,
    announce_start,
    anytime_wrap_up,
    publish,
    trace_incumbent,
    tt_totals,
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
from ..model.compile import compile_problem
from ..obs import Observability
from . import protocol
from .membership import Member, MembershipTable
from .transport import SocketPairListener, TcpTransport, Transport
from .worker import run_local_worker

__all__ = ["ClusterCoordinator", "ClusterReport"]

_INF = math.inf


def _close_quietly(conn) -> None:
    """Close a link whose peer may already be gone."""
    try:
        conn.close()
    except Exception:
        pass


def _send_quietly(conn, frame: dict) -> None:
    """Best-effort send: bounds, stops, revokes and rejects may be lost."""
    try:
        conn.send(frame)
    except (TransportClosed, ClusterError):
        pass


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
            f"stale={self.shards_stale} retries={self.shard_retries} "
            f"restarts={self.worker_restarts}{extra}"
        )


class _OpenShards:
    """The boundary's frontier: every live shard not answered complete.

    Pending, in flight, quarantined or cut short, each at its root bound.
    """

    def __init__(self, live: list[Shard]) -> None:
        self.live = live
        #: Shards whose result or stale frame arrived (the first wins).
        self.answered: set[int] = set()
        #: Answered shards whose search stopped early.
        self.cut: set[int] = set()

    def __len__(self) -> int:
        return len(self.live) - len(self.answered) + len(self.cut)

    def export(self) -> list[Shard]:
        return [
            s for s in self.live
            if s.index not in self.answered or s.index in self.cut
        ]

    def min_bound(self) -> float | None:
        return min((s.lower_bound for s in self.export()), default=None)


class _Dispatch:
    """One cluster solve's event loop: members, shards and the incumbent."""

    def __init__(
        self, coordinator: "ClusterCoordinator", problem, fingerprint: str,
        merged: SearchStats, live: list[Shard], budget: float,
        incumbent0: float, best: tuple, origin: tuple, shared_tt,
    ) -> None:
        self.coord = coordinator
        self.problem = problem
        self.fingerprint = fingerprint
        self.merged = merged
        self.open = _OpenShards(live)
        self.remaining = budget
        self.incumbent0 = incumbent0
        #: ``(cost, proc, start)`` of the schedule in hand.
        self.best = best
        self.initial_ub, self.source = origin
        self.pending = RetryQueue(
            max_attempts=coordinator.max_shard_attempts,
            backoff=BackoffPolicy(
                base=coordinator.retry_backoff, rng=random.Random()
            ),
        )
        for shard in live:
            self.pending.add(shard)
        self.members = MembershipTable()
        #: Costs published by shards in flight, by shard index.
        self.published: dict[int, float] = {}
        self.epoch = 0
        self.broadcast = min(incumbent0, self.found_cost)
        self.target = False
        #: What ended the loop early: the boundary's stop kind, or
        #: ``"MAXVERT"`` when the vertex budget ran out.
        self.stop_kind: str | None = None
        self.stale = 0
        self.steals = 0
        self.worker_restarts = 0
        self.handshakes: list[tuple] = []  # (conn, hello due by)
        #: Worker id -> live local worker process.
        self.local: dict = {}
        self.spawned = 0
        self.slots = min(coordinator.local_workers, len(live))
        self.tt_handle = shared_tt.handle() if shared_tt is not None else None
        self.listener = None
        self.memberless_since = time.monotonic()
        self.next_sample = 0.0
        obs = coordinator.obs
        self.monitor = obs.live if obs is not None else None
        self.progress = obs.progress if obs is not None else None
        self.sink = obs.event_sink() if obs is not None else None
        self.metrics = obs.metrics if obs is not None else None
        # Incumbents skip the live bus: it recorded the worker's bound
        # frame as it arrived.
        self.trace_sink = obs.sink if obs is not None else None

    # -- state --------------------------------------------------------

    @property
    def found_cost(self) -> float:
        """Cost of the schedule in hand (inf: none)."""
        cost, proc, _start = self.best
        return cost if proc is not None else _INF

    @property
    def incumbent_source(self) -> str:
        """Where the held schedule came from: a shard beat U, or the origin."""
        if self.best[1] is not None and self.best[0] < self.initial_ub:
            return "search"
        return self.source

    @property
    def halt(self) -> bool:
        return self.target or self.stop_kind is not None

    def snapshot(self, view: _OpenShards, in_hand=None) -> SearchCheckpoint:
        """The cluster search as it stands: every open shard at its root."""
        merged = self.merged
        counters = merged.as_dict()
        counters["elapsed"] = merged.time_since_start()
        frontier = [(s.state, s.lower_bound, s.index) for s in view.export()]
        _cost, proc, start = self.best
        return SearchCheckpoint(
            fingerprint=self.fingerprint,
            frontier=frontier,
            seq=max((idx for _s, _lb, idx in frontier), default=0) + 1,
            incumbent_cost=min(self.incumbent0, self.found_cost),
            found_cost=self.found_cost,
            best_proc=proc,
            best_start=start,
            incumbent_source=self.incumbent_source,
            initial_upper_bound=self.initial_ub,
            stats=counters,
            tt=tt_totals(merged, None),
        )

    def emit(self, kind: str, **payload) -> None:
        if self.sink is not None and self.sink.accepts(kind):
            self.sink.emit(kind, payload)

    def count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    # -- the loop -----------------------------------------------------

    def run(self, boundary: Boundary) -> str | None:
        """Tick until the solve ends; returns the stop kind (None: done)."""
        coord = self.coord
        if coord._listener is None:
            coord._listener = (
                SocketPairListener()
                if coord.local_workers
                else coord.transport.listen(coord.bind)
            )
        self.listener = coord._listener
        coord.bound_address = self.listener.address
        total = len(self.open.live)
        inaccuracy = coord.params.inaccuracy
        try:
            while (
                not self.halt
                and len(self.open.answered) + len(self.pending.quarantined)
                < total
            ):
                self.stop_kind = boundary.service(
                    self.open, None, self.broadcast,
                    pruning_threshold(self.broadcast, inaccuracy),
                )
                if self.stop_kind is None and not self.tick():
                    break
        finally:
            self.shutdown()
        return self.stop_kind

    def tick(self) -> bool:
        """One pass of the loop; False once every worker is gone for good."""
        coord = self.coord
        self.top_up()
        self.accept_new(wait=0.005)
        for member in self.members:
            self.drain(member)
        for member in self.members.expired(coord.lease):
            self.drop_member(member, "lease expired", expired=True)
        now = time.monotonic()
        if len(self.members):
            self.memberless_since = now
        elif now - self.memberless_since > coord.worker_timeout:
            if not self.members.joins:
                raise ClusterError(
                    f"no worker joined within {coord.worker_timeout}s"
                )
            # Every worker is gone and none came back: truncate rather
            # than spin forever.
            while (task := self.pending.pop_eligible(_INF)) is not None:
                shard, attempt = task
                self.pending.quarantined.append(shard.index)
                self.emit(
                    "quarantine", shard=shard.index, attempts=attempt,
                    cause="no workers left",
                )
            return False
        if len(self.members) >= coord.min_workers or self.open.answered:
            self.dispatch()
            self.try_steal()
        self.sample(now)
        return True

    def shutdown(self) -> None:
        """Stop every member, keep what the stop cut short, reap workers."""
        for conn, _due_by in self.handshakes:
            _close_quietly(conn)
        self.handshakes = []
        for member in self.members:
            _send_quietly(member.conn, protocol.stop_frame())
        grace_end = time.monotonic() + 1.0
        for member in self.members:
            try:
                while time.monotonic() < grace_end:
                    frame = member.conn.recv(
                        timeout=max(0.0, grace_end - time.monotonic())
                    )
                    if frame is None:
                        break
                    kind = protocol.frame_type(frame)
                    if kind == "result":
                        # A shard the stop cut short: keep its counters
                        # and schedule.
                        self.handle_frame(member, frame)
                    elif kind == "bye":
                        break
            except (TransportClosed, ClusterError):
                pass
            _close_quietly(member.conn)
        for proc in self.local.values():
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join()

    # -- workers ------------------------------------------------------

    def top_up(self) -> None:
        """Keep one local worker process per slot, respawning dropped ones.

        The coordinator loads the kernel (and numpy) before it forks, so
        forked workers inherit it instead of each loading it again.
        """
        if len(self.local) < self.slots and self.coord.params.engine != "object":
            from ..core import _native

            _native.load_error()
        while len(self.local) < self.slots:
            if self.spawned >= self.slots:
                self.worker_restarts += 1
            worker_id = f"local-{self.spawned}"
            self.spawned += 1
            child = self.listener.pair()
            proc = multiprocessing.Process(
                target=run_local_worker,
                args=(child, worker_id, self.coord.fault_plan, self.tt_handle),
                name=worker_id,
                daemon=True,
            )
            proc.start()
            child.close()
            self.local[worker_id] = proc

    def accept_new(self, wait: float) -> None:
        """Queue new connections and admit those whose hello arrived.

        Waiting up to ``wait`` seconds for the first connection is the
        loop's tick (a socketpair listener also wakes on worker frames).
        """
        try:
            while (conn := self.listener.accept(timeout=wait)) is not None:
                self.handshakes.append((conn, time.monotonic() + 10.0))
                wait = 0.0
        except TransportClosed:
            return
        waiting = []
        for conn, due_by in self.handshakes:
            if self.handshake(conn):
                continue
            if time.monotonic() > due_by:
                _close_quietly(conn)
            else:
                waiting.append((conn, due_by))
        self.handshakes = waiting

    def handshake(self, conn) -> bool:
        """Welcome or reject ``conn``; False while its hello is still due."""
        try:
            if not conn.poll():
                return False
            frame = conn.recv(timeout=0.0)
            if frame is None:
                return False
            worker_id = protocol.check_hello(frame)
            if worker_id in self.members:
                # A reconnect under the same id: the old link is dead,
                # this one supersedes it.
                self.drop_member(
                    self.members.get(worker_id),
                    "superseded by reconnect",
                    expired=False,
                )
            coord = self.coord
            conn.send(
                protocol.welcome(
                    self.fingerprint, self.problem, coord.params, coord.lease
                )
            )
            member = self.members.add(worker_id, conn)
            member.slot = self.members.joins - 1
            self.emit("worker_join", worker=worker_id, members=len(self.members))
            self.count("bnb_cluster_join_total")
        except TransportClosed:
            _close_quietly(conn)
        except ClusterError as exc:
            _send_quietly(conn, protocol.reject(str(exc)))
            _close_quietly(conn)
        return True

    def drain(self, member: Member) -> None:
        """Pump a member's frames; a closed link drops the member."""
        try:
            while member.conn.poll():
                frame = member.conn.recv(timeout=0.0)
                if frame is None:
                    break
                self.handle_frame(member, frame)
        except TransportClosed as exc:
            self.drop_member(
                member, str(exc) or "connection lost", expired=False
            )

    def drop_member(self, member: Member, cause: str, *, expired: bool) -> None:
        """Bury a member and re-queue (or quarantine) what it held."""
        self.members.remove(member.worker_id, expired=expired)
        proc = self.local.pop(member.worker_id, None)
        if proc is not None:
            # Dead, hung or cut off: it must never finish its shard.
            proc.kill()
            proc.join()
        _close_quietly(member.conn)
        if expired:
            self.count("bnb_cluster_lease_expired_total")
            self.emit(
                "lease_expired", worker=member.worker_id,
                lease_age=round(member.lease_age(), 3),
                shards_held=len(member.assigned),
            )
        self.emit(
            "worker_leave", worker=member.worker_id, cause=cause,
            done=member.done, shards_requeued=len(member.assigned),
        )
        if self.monitor is not None:
            self.monitor.on_worker_down(member.slot, 0)
        now = time.monotonic()
        requeued = False
        for shard, attempt in member.assigned.values():
            if shard.index in self.open.answered:
                continue
            if self.published.pop(shard.index, None) is not None:
                # Published but never acknowledged: this cost's
                # schedule died with the worker.
                requeued = True
            delay = self.pending.requeue(shard, attempt, now)
            if delay is None:
                self.emit(
                    "quarantine", shard=shard.index, attempts=attempt,
                    cause=cause,
                )
            else:
                self.count("bnb_shard_retry_total")
                self.emit(
                    "shard_retry", shard=shard.index, attempt=attempt + 1,
                    delay=round(delay, 4), cause=cause,
                )
        if proc is not None:
            shard, attempt = next(iter(member.assigned.values()), (None, None))
            self.count("bnb_worker_restart_total")
            self.emit(
                "worker_restart", worker=member.worker_id,
                shard=shard.index if shard is not None else None,
                attempt=attempt, cause=cause,
            )
        member.assigned.clear()
        if requeued:
            self.recompute_broadcast()

    # -- frames -------------------------------------------------------

    def handle_frame(self, member: Member, frame: dict) -> None:
        member.renew()
        kind = protocol.frame_type(frame)
        if kind == "hb":
            member.running = frame["shard"]
            member.explored = frame["explored"]
            member.vps = frame["vps"]
            if self.monitor is not None:
                self.show_member(member, lease_age=0.0)
        elif kind == "bound":
            idx, cost = frame["shard"], frame["cost"]
            if idx >= 0 and idx not in self.open.answered:
                if cost < self.published.get(idx, _INF):
                    self.published[idx] = cost
            if self.lower_broadcast(cost) and self.monitor is not None:
                self.monitor.bus.record_event(
                    "incumbent",
                    dict(
                        cost=cost,
                        elapsed=round(self.merged.time_since_start(), 3),
                        source=member.worker_id,
                    ),
                )
        elif kind in ("result", "stale"):
            if frame["fingerprint"] != self.fingerprint:
                return  # straggler from another solve
            idx = frame["shard"]
            member.assigned.pop(idx, None)
            if idx in self.open.answered:
                return  # duplicate (steal or woken hang): first wins
            self.open.answered.add(idx)
            self.published.pop(idx, None)
            if kind == "stale":
                self.stale += 1
                member.stale += 1
                self.merged.pruned_active += 1
            else:
                member.done += 1
                self.absorb(idx, frame)
        elif kind == "bye":
            raise TransportClosed("worker said bye")

    def absorb(self, idx: int, frame: dict) -> None:
        """Fold a shard's result into the solve (first result only)."""
        wstats = frame["stats"]
        if wstats.stopped_early:
            self.open.cut.add(idx)
        self.merged.absorb(wstats)
        self.remaining -= wstats.generated
        cost, proc = frame["cost"], frame["proc"]
        if proc is not None:
            if cost < self.found_cost:
                self.best = (cost, proc, frame["start"])
                trace_incumbent(self.trace_sink, cost, self.merged)
            self.lower_broadcast(cost)
        if frame["target"]:
            self.target = True
        if self.remaining <= 0 and self.stop_kind is None:
            self.stop_kind = "MAXVERT"

    def lower_broadcast(self, cost: float) -> bool:
        """Adopt a cheaper bound and push it (best effort) to every member."""
        if cost >= self.broadcast:
            return False
        self.broadcast = cost
        for m in self.members:
            _send_quietly(m.conn, protocol.bound_frame(cost, self.epoch))
        return True

    def recompute_broadcast(self) -> None:
        """Safe bound: acked costs + publishes of in-flight shards."""
        floor = min(
            self.incumbent0, self.found_cost, *self.published.values()
        )
        if floor > self.broadcast:
            # A publisher died unacked: the bound rises, and the epoch
            # fences off its stale broadcasts so the retry can re-find
            # the lost cost.
            self.epoch += 1
        self.broadcast = floor

    # -- shards -------------------------------------------------------

    def send_shard(self, member: Member, shard: Shard, attempt: int) -> bool:
        """Hand ``member`` a shard; a failed send buries the member."""
        try:
            member.conn.send(
                protocol.shard_frame(
                    shard, attempt, self.remaining,
                    self.broadcast, self.epoch, self.fingerprint,
                )
            )
        except (TransportClosed, ClusterError):
            self.drop_member(member, "send failed", expired=False)
            return False
        member.assigned[shard.index] = (shard, attempt)
        if attempt > 1:
            member.retried += 1
        return True

    def dispatch(self) -> None:
        """Fill every member's queue up to the prefetch depth."""
        if self.halt:
            return
        now = time.monotonic()
        for member in self.members:
            while len(member.assigned) < self.coord.prefetch:
                task = self.pending.pop_eligible(now)
                if task is None:
                    return
                if not self.send_shard(member, *task):
                    # The worker never held it: give it back untouched.
                    self.pending.add(*task)
                    break

    def try_steal(self) -> None:
        """Move a loaded member's last backlog shard to an idle member."""
        if not self.coord.steal or self.halt or self.pending:
            return
        idle = [m for m in self.members if not m.assigned]
        victims = [m for m in self.members if len(m.assigned) >= 2]
        if not idle or not victims:
            return
        thief = idle[0]
        victim = random.choice(victims)
        idx, (shard, attempt) = list(victim.assigned.items())[-1]
        if not self.send_shard(thief, shard, attempt):
            return
        del victim.assigned[idx]
        victim.stolen_from += 1
        # A stolen retry is the thief's now: each retry counts once.
        if attempt > 1:
            victim.retried -= 1
        self.steals += 1
        self.count("bnb_cluster_steal_total")
        self.emit(
            "steal", shard=idx, victim=victim.worker_id, thief=thief.worker_id
        )
        # The revoke is advisory: duplicate results dedupe anyway.
        _send_quietly(victim.conn, protocol.revoke(idx))

    # -- telemetry ----------------------------------------------------

    def show_member(self, member: Member, *, lease_age: float) -> None:
        self.monitor.on_cluster_member(
            member.slot,
            name=member.worker_id,
            shard=member.running if member.running >= 0 else None,
            explored=member.explored,
            vps=member.vps,
            lease_age=lease_age,
            done=member.done,
            retried=member.retried,
            stolen=member.stolen_from,
        )

    def sample(self, now: float) -> None:
        """Refresh ``/status`` and the heartbeat once their interval passed."""
        monitor, progress = self.monitor, self.progress
        if (monitor is None and progress is None) or now < self.next_sample:
            return
        self.next_sample = now + (
            monitor.interval if monitor is not None else progress.interval
        )
        open_lb = self.open.min_bound()
        inc = self.broadcast
        gap = None
        if open_lb is not None and not math.isinf(inc):
            gap = max(0.0, inc - open_lb)
        merged = self.merged
        if monitor is not None:
            for m in self.members:
                self.show_member(m, lease_age=m.lease_age())
            _, vps_total = monitor.bus.worker_totals()
            elapsed = merged.time_since_start()
            monitor.bus.update(
                phase="solving",
                incumbent=None if math.isinf(inc) else inc,
                open_lower_bound=open_lb,
                gap=gap,
                vps=round(vps_total, 1),
                workers_alive=len(self.members),
                queue_depth=len(self.pending),
                shards_done=len(self.open.answered) - self.stale,
                explored=merged.explored,
                generated=merged.generated,
                elapsed=round(elapsed, 3),
                cluster={
                    "members": len(self.members),
                    "joins": self.members.joins,
                    "leaves": self.members.leaves,
                    "lease_expiries": self.members.lease_expiries,
                    "steals": self.steals,
                    "retries": self.pending.retries,
                },
            )
            monitor.bus.add_sample(elapsed, gap, vps_total)
        if progress is not None:
            progress.maybe_emit(
                explored=merged.explored,
                generated=merged.generated,
                active=len(self.pending),
                incumbent=inc,
                gap=gap,
                workers_alive=len(self.members),
            )


class ClusterCoordinator:
    """Owns the solve; dispatches frontier shards to workers.

    ``local_workers=0`` serves remote workers joining at ``bind``;
    ``local_workers=N`` spawns N worker processes over socketpairs once
    the shallow pass leaves live shards, and binds no address.

    Only the optimal *cost* is guaranteed: which equal-cost schedule
    wins, and the counters, depend on cross-process timing.  TIMELIMIT
    is one deadline for the whole solve; MAXVERT is checked as shard
    results arrive, and every shard sent carries the whole remaining
    budget, so a capped solve may generate more than the cap.  ``stop``,
    once set, ends the solve ``INTERRUPTED``.
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
        if retry_backoff < 0:
            raise ConfigurationError(
                f"retry_backoff must be >= 0, got {retry_backoff}"
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

    def solve_graph(self, graph, platform) -> BnBResult:
        """Compile ``graph`` for ``platform`` and :meth:`solve` it."""
        return self.solve(compile_problem(graph, platform))

    def solve(self, problem) -> BnBResult:
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
            return self._solve(problem, shared_tt)
        finally:
            # Also closes a listener bind_now() opened for a solve the
            # shallow pass finished: a waiting worker sees EOF at once.
            if self._listener is not None:
                self._listener.close()
                self._listener = None
            if shared_tt is not None:
                tt_rule.bind_shared(None)
                shared_tt.close()

    def _solve(self, problem, shared_tt) -> BnBResult:
        params = self.params
        obs = self.obs
        fingerprint = problem_fingerprint(problem, params)
        snap = self.resume
        if snap is not None:
            snap.require_match(fingerprint)
        # As in the engine: a snapshot keeps the table's counters apart,
        # and its elapsed is the base of the solve's clock, so a resumed
        # TIMELIMIT counts the time spent before the restart.
        merged = SearchStats() if snap is None else SearchStats.from_dict(
            snap.stats | (snap.tt or {})
        )
        merged.start_clock()
        boundary = Boundary(
            stats=merged,
            rb=params.resources,
            cadence=1,  # serviced once per loop tick
            inaccuracy=params.inaccuracy,
            prunes_active=False,
            stop=self.stop,
            checkpoint=self.checkpoint,
            metrics=obs.metrics if obs is not None else None,
            sink=obs.event_sink() if obs is not None else None,
        )
        shallow_engine = ("", None)
        if snap is not None:
            best = (snap.found_cost, snap.best_proc, snap.best_start)
            origin = (snap.initial_upper_bound, snap.incumbent_source)
            incumbent0 = snap.incumbent_cost
            shards = [
                Shard(int(seq), state, lb, incumbent0, _INF)
                for state, lb, seq in snap.frontier
            ]
            if self.checkpoint is not None:
                self.checkpoint.resume_from(snap)
            announce_start(obs, problem, params, incumbent0)
        else:
            # The shallow pass is part of this solve, not a solve of its
            # own: it reports nothing, and the coordinator publishes the
            # whole solve once, at the end.
            collector = FrontierCollector(self.split_depth)
            shallow = BranchAndBound(params).solve(
                problem, dispatcher=collector
            )
            shards = collector.shards
            announce_start(obs, problem, params, shallow.initial_upper_bound)
            merged.absorb(shallow.stats)
            if shallow.incumbent_source == "search":
                trace_incumbent(
                    obs.sink if obs is not None else None,
                    shallow.best_cost, merged,
                )
            # A pass cut short leaves open vertices that no shard holds:
            # its own result stands, with the shards' bounds in its open
            # bound, and no shard is dispatched or snapshotted.
            cut_short = shallow.open_lower_bound is not None
            if (
                not shards
                or shallow.status is SolveStatus.TARGET_REACHED
                or cut_short
            ):
                if cut_short:
                    stats = shallow.stats
                    boundary.stopped(
                        "TIMELIMIT" if stats.time_limit_hit
                        else "MEMLIMIT" if stats.memory_limit_hit
                        else "MAXVERT",
                        f"{stats.generated} generated in the shallow pass",
                    )
                    shallow = replace(shallow, open_lower_bound=min(
                        [shallow.open_lower_bound]
                        + [s.lower_bound for s in shards]
                    ))
                self.last_report = ClusterReport(
                    0, 0, 0, 0, 0, len(shards), 0, 0, (), False, 0
                )
                publish(shallow, obs, active=len(shards))
                return shallow
            best = (shallow.best_cost, shallow.proc_of, shallow.start)
            origin = (shallow.initial_upper_bound, shallow.incumbent_source)
            incumbent0 = min(shallow.best_cost, shallow.initial_upper_bound)
            # The tier line reports what the workers ran; the shallow
            # pass's own tier stands only if no shard result arrives.
            shallow_engine = (merged.engine_path, merged.engine_fallback)
            merged.engine_path, merged.engine_fallback = "", None

        threshold0 = pruning_threshold(incumbent0, params.inaccuracy)
        live = [
            s for s in shards
            if not params.elimination.should_prune(s.lower_bound, threshold0)
        ]
        merged.pruned_active += len(shards) - len(live)
        budget = params.resources.max_vertices - merged.generated
        dispatch = _Dispatch(
            self, problem, fingerprint, merged, live, budget, incumbent0,
            best, origin, shared_tt,
        )
        # Built at solve entry, the boundary only now has a search to save.
        boundary.snapshot = dispatch.snapshot
        if snap is not None:
            announce_resume(
                dispatch.sink, dispatch.metrics, snap, merged, len(live),
                incumbent0,
            )
        stop_kind = None
        if budget <= 0:
            stop_kind = "MAXVERT"
        elif live:
            stop_kind = dispatch.run(boundary)
        if stop_kind == "MAXVERT":
            boundary.stopped("MAXVERT", f"{merged.generated} generated")
            merged.truncated = True
        pending = dispatch.pending
        if pending.quarantined or (pending and not dispatch.target):
            merged.truncated = True
        # Worker stats say "interrupted" for shards the stop below cut
        # short; only the coordinator knows whether the solve was.
        merged.interrupted = stop_kind == "INTERRUPTED"
        if not merged.engine_path:
            merged.engine_path, merged.engine_fallback = shallow_engine
        merged.stop_clock()

        cost, proc, start = dispatch.best
        status = BranchAndBound._status(
            params, merged, dispatch.target, proc is not None
        )
        open_lower_bound, checkpoint_path = anytime_wrap_up(
            boundary, dispatch.open
        )
        members = dispatch.members
        self.last_report = ClusterReport(
            workers=members.joins,
            joins=members.joins,
            leaves=members.leaves,
            lease_expiries=members.lease_expiries,
            steals=dispatch.steals,
            shards=len(shards),
            shards_stale=(len(shards) - len(live)) + dispatch.stale,
            shard_retries=pending.retries,
            quarantined=tuple(pending.quarantined),
            resumed=snap is not None,
            checkpoint_writes=(
                self.checkpoint.writes if self.checkpoint is not None else 0
            ),
            worker_restarts=dispatch.worker_restarts,
        )
        result = BnBResult(
            problem=problem,
            params=params,
            status=status,
            best_cost=dispatch.found_cost,
            proc_of=proc,
            start=start,
            incumbent_source=dispatch.incumbent_source,
            initial_upper_bound=origin[0],
            stats=merged,
            open_lower_bound=open_lower_bound,
            checkpoint_path=checkpoint_path,
        )
        publish(result, obs, active=len(dispatch.open))
        return result
