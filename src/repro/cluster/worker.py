"""The cluster worker: connect, handshake, search shards until told to stop.

A :class:`ClusterWorker` is deliberately almost stateless — everything
it knows (problem, parameters, lease duration) arrives in the welcome
frame, and everything it produces goes back as frames.  That makes
workers *elastic*: one can join an hour into a solve, or die without
notice, and the coordinator's lease/retry machinery absorbs both.

The same worker serves both deployments: a remote process that dials
the coordinator over TCP (``repro cluster worker``), and a local
process the coordinator spawns itself over a socketpair
(:func:`run_local_worker`, ``repro solve --workers N``).  A local
worker also binds the coordinator's shared transposition table.

Liveness is woven into the search itself: the engine polls its bound
channel at every chunk boundary, and the cluster channel uses that
hook to (a) send a heartbeat every ``lease/3`` seconds, carrying the
vertices/second rate over the window since the previous one, (b) drain
incoming frames — adopting epoch-valid incumbent bounds mid-search,
dequeuing revoked shards, honouring a stop — and (c) publish local
incumbent improvements back to the coordinator best-effort.  A worker
that hangs stops doing all three, which is exactly what lease expiry
is for.

Fault injection (a plan whose ``match(shard, attempt)`` returns None
or the planted fault, with its ``kind``, ``hang_seconds`` and
``after_polls``) is honoured in-process: ``crash`` and ``crash-mid``
tear the connection down abruptly, ``hang`` sleeps past the lease
without heartbeats and then *finishes the shard anyway* — exercising
the duplicate-result path after the coordinator reassigned it (a local
worker is terminated at lease expiry instead).  Real deployments crash
with signals; no plan needed.
"""

from __future__ import annotations

import os
import signal
import socket
import time

from ..core.checkpoint import StopToken, problem_fingerprint
from ..core.elimination import pruning_threshold
from ..core.engine import BranchAndBound, SolveStatus, SubtreeSpec
from ..core.transposition import SharedTranspositionTable, find_transposition
from ..errors import ClusterError, TransportClosed
from . import protocol
from .transport import (
    SocketPairListener,
    SocketPairTransport,
    TcpTransport,
    Transport,
)

__all__ = ["ClusterWorker", "run_local_worker"]

_INF = float("inf")

class _WorkerDied(Exception):
    """Internal: an injected fault killed this worker."""


class _ClusterBoundChannel:
    """Engine bound channel wired to the coordinator connection.

    ``poll`` piggybacks heartbeats and frame draining on the engine's
    chunk boundaries, and counts the shard's explored vertices from the
    engine's own count (boundaries are 64 explored vertices apart on the
    Python loop but far more on the native driver); ``publish`` ships
    improvements upstream best-effort (a lost bound frame only costs
    pruning power — the schedule itself travels with the result frame,
    and an unacked shard is re-explored).
    """

    def __init__(self, worker: "ClusterWorker", incumbent: float) -> None:
        self._worker = worker
        self._best = incumbent
        #: The shard's explored count at the last poll.
        self.explored = 0

    def poll(self, explored: int) -> float:
        w = self._worker
        w._explored_total += explored - self.explored
        self.explored = explored
        if w.poll_delay:
            time.sleep(w.poll_delay)
        w._maybe_heartbeat(explored)
        w._drain()
        if w._adopted < self._best:
            self._best = w._adopted
        return self._best

    def publish(self, cost: float) -> bool:
        if cost >= self._best:
            return False
        self._best = cost
        w = self._worker
        try:
            w._conn.send(
                protocol.bound_frame(cost, w._epoch, w._running_shard)
            )
        except TransportClosed:
            pass  # coordinator gone; the search still finishes
        return True


class _CrashMid:
    """Fault-injection channel: die at the Nth poll (in-process analog of
    the parallel driver's ``crash-mid``)."""

    def __init__(self, inner, polls: int) -> None:
        self._inner = inner
        self._left = max(1, polls)

    def poll(self, explored: int) -> float:
        self._left -= 1
        if self._left <= 0:
            raise _WorkerDied()
        return self._inner.poll(explored)

    def publish(self, cost: float) -> bool:
        return self._inner.publish(cost)


class ClusterWorker:
    """One worker process (or thread, under the fake transport)."""

    def __init__(
        self,
        address: str,
        *,
        transport: Transport | None = None,
        worker_id: str | None = None,
        connect_timeout: float = 30.0,
        fault_plan=None,
        max_shards: int | None = None,
        poll_delay: float = 0.0,
    ) -> None:
        self.address = address
        self.transport = transport if transport is not None else TcpTransport()
        self.worker_id = (
            worker_id
            if worker_id is not None
            else f"{socket.gethostname()}-{os.getpid()}"
        )
        self.connect_timeout = connect_timeout
        self.fault_plan = fault_plan
        #: Stop after this many completed shards (tests: force a
        #: mid-solve leave); None runs until the coordinator says stop.
        self.max_shards = max_shards
        #: Artificial seconds slept per bound-channel poll — a fault
        #: drill knob that stretches shard wall-clock so kill/lease
        #: scenarios land mid-shard deterministically.
        self.poll_delay = poll_delay
        self.shards_done = 0
        self.shards_stale = 0
        self._conn = None
        self._queue: list[dict] = []
        self._finished: set[int] = set()
        self._adopted = _INF
        self._last_bound: tuple[int, float] = (-1, _INF)
        self._epoch = 0
        self._running_shard = -1
        self._stop = False
        self._lease = 10.0
        self._hb_interval = 3.0
        self._last_hb = 0.0
        #: Vertices explored over the worker's life, and their count at
        #: the last heartbeat (the heartbeat's vps window).
        self._explored_total = 0
        self._hb_explored = 0
        self._engine_stop: StopToken | None = None

    # -- connection ---------------------------------------------------------

    def _connect(self):
        deadline = time.monotonic() + self.connect_timeout
        while True:
            try:
                return self.transport.connect(self.address)
            except TransportClosed:
                if time.monotonic() >= deadline:
                    raise ClusterError(
                        f"no coordinator at {self.address} within "
                        f"{self.connect_timeout}s"
                    )
                time.sleep(0.2)

    def _handshake(self):
        self._conn.send(protocol.hello(self.worker_id))
        frame = self._conn.recv(timeout=self.connect_timeout)
        if frame is None:
            raise ClusterError("handshake timed out waiting for welcome")
        kind = protocol.frame_type(frame)
        if kind == "reject":
            raise ClusterError(f"coordinator rejected us: {frame['reason']}")
        if kind != "welcome":
            raise ClusterError(f"expected welcome, got {kind!r}")
        if frame["proto"] != protocol.PROTOCOL_VERSION:
            raise ClusterError(
                f"protocol version mismatch: coordinator speaks "
                f"{frame['proto']}, we speak {protocol.PROTOCOL_VERSION}"
            )
        problem, params = frame["problem"], frame["params"]
        # The problem recompiled on our side must fingerprint to what
        # the coordinator hashed — a worker can never compute against
        # the wrong (or corrupted) instance.
        ours = problem_fingerprint(problem, params)
        if ours != frame["fingerprint"]:
            raise ClusterError(
                "problem fingerprint mismatch after transfer "
                f"(coordinator {frame['fingerprint'][:12]}…, local {ours[:12]}…)"
            )
        self._lease = float(frame["lease"])
        self._hb_interval = max(0.05, self._lease / 3.0)
        # The first heartbeat's vps window opens at the handshake.
        self._last_hb = time.monotonic()
        return problem, params, frame["fingerprint"]

    # -- frame handling -----------------------------------------------------

    def _handle(self, frame: dict) -> None:
        kind = protocol.frame_type(frame)
        if kind == "shard":
            if frame["shard"] in self._finished:
                return  # duplicate delivery of something already done
            if any(q["shard"] == frame["shard"] for q in self._queue):
                return
            self._queue.append(frame)
        elif kind == "bound":
            epoch, cost = frame["epoch"], frame["cost"]
            best_epoch, best_cost = self._last_bound
            if epoch > best_epoch:
                self._last_bound = (epoch, cost)
            elif epoch == best_epoch and cost < best_cost:
                self._last_bound = (epoch, cost)
            if epoch >= self._epoch and cost < self._adopted:
                self._adopted = cost
        elif kind == "revoke":
            self._queue = [
                q for q in self._queue if q["shard"] != frame["shard"]
            ]
        elif kind == "stop":
            self._stop = True
            if self._engine_stop is not None:
                self._engine_stop.set("coordinator stop")

    def _drain(self) -> None:
        try:
            while self._conn.poll():
                frame = self._conn.recv(timeout=0.0)
                if frame is None:
                    break
                self._handle(frame)
        except TransportClosed:
            raise _WorkerDied() from None

    def _maybe_heartbeat(self, explored: int = 0) -> None:
        """Heartbeat if one is due; ``explored`` is the running shard's."""
        now = time.monotonic()
        window = now - self._last_hb
        if window < self._hb_interval:
            return
        vps = (self._explored_total - self._hb_explored) / window
        self._last_hb = now
        self._hb_explored = self._explored_total
        try:
            self._conn.send(
                protocol.heartbeat(self._running_shard, explored, vps)
            )
        except TransportClosed:
            raise _WorkerDied() from None

    # -- the shard loop -----------------------------------------------------

    def run(self, shared_tt: tuple | None = None) -> int:
        """Serve shards until stop/EOF; returns shards completed.

        ``shared_tt`` is the :meth:`SharedTranspositionTable.handle` of
        the coordinator's table, which a local worker binds after the
        handshake; without it a transposition rule uses a table local
        to this process.
        """
        self._conn = self._connect()
        try:
            problem, params, fingerprint = self._handshake()
            tt_rule = find_transposition(params.dominance)
            if tt_rule is not None and shared_tt is not None:
                tt_rule.bind_shared(
                    SharedTranspositionTable.from_handle(shared_tt)
                )
            self._serve(problem, params, fingerprint)
        except (_WorkerDied, TransportClosed):
            pass  # injected death or coordinator gone: just exit
        finally:
            try:
                self._conn.close()
            except Exception:
                pass
        return self.shards_done

    def _serve(self, problem, params, fingerprint) -> None:
        elim = params.elimination
        engine = BranchAndBound(params)
        while not self._stop:
            if not self._queue:
                self._maybe_heartbeat()
                frame = self._conn.recv(timeout=self._hb_interval)
                if frame is not None:
                    self._handle(frame)
                continue
            job = self._queue.pop(0)
            self._run_one(engine, elim, problem, params, job, fingerprint)
            if (
                self.max_shards is not None
                and self.shards_done >= self.max_shards
            ):
                return  # voluntary mid-solve leave (elasticity tests)
        try:
            self._conn.send(protocol.bye())
        except TransportClosed:
            pass

    def _run_one(
        self, engine, elim, problem, params, job: dict, fingerprint: str
    ) -> None:
        index, attempt = job["shard"], job["attempt"]
        if job["fingerprint"] != fingerprint:
            return  # straggler from another solve on a reused address
        fault = (
            self.fault_plan.match(index, attempt)
            if self.fault_plan is not None
            else None
        )
        if fault is not None and fault.kind == "crash":
            raise _WorkerDied()
        if fault is not None and fault.kind == "hang":
            # No heartbeats while asleep — the lease must expire — then
            # finish the shard anyway to exercise duplicate-result dedup.
            time.sleep(fault.hang_seconds)
        self._epoch = job["epoch"]
        self._running_shard = index
        # Frames that arrived while idle count iff their epoch is valid
        # for this dispatch.
        bound_epoch, bound_cost = self._last_bound
        self._adopted = bound_cost if bound_epoch >= self._epoch else _INF
        incumbent = min(job["incumbent"], self._adopted)
        try:
            if elim.should_prune(
                job["lb"], pruning_threshold(incumbent, params.inaccuracy)
            ):
                self._finished.add(index)
                self.shards_stale += 1
                self._conn.send(protocol.stale_frame(index, fingerprint))
                return
            channel = _ClusterBoundChannel(self, incumbent)
            self._engine_stop = StopToken()
            result = engine.solve(
                problem,
                subtree=SubtreeSpec(
                    job["state"], job["lb"], incumbent, job["budget"]
                ),
                bound_channel=(
                    _CrashMid(channel, fault.after_polls)
                    if fault is not None and fault.kind == "crash-mid"
                    else channel
                ),
                stop=self._engine_stop,
            )
            # The shard's tail after its last boundary counts toward the
            # next heartbeat's rate.  A shard cut short by a coordinator
            # stop still reports: its counters and best schedule are
            # part of the anytime result.
            self._explored_total += result.stats.explored - channel.explored
            self._finished.add(index)
            self.shards_done += 1
            self._conn.send(
                protocol.result_frame(
                    index,
                    attempt,
                    result.stats,
                    result.best_cost if result.proc_of is not None else _INF,
                    result.proc_of,
                    result.start,
                    result.status is SolveStatus.TARGET_REACHED,
                    fingerprint,
                )
            )
        except TransportClosed:
            raise _WorkerDied() from None
        finally:
            self._running_shard = -1
            self._engine_stop = None


def run_local_worker(sock, worker_id: str, fault_plan, shared_tt) -> None:
    """Process entry of a worker the coordinator spawned itself.

    ``sock`` is the child end of a
    :class:`~repro.cluster.transport.SocketPairListener` link; the
    handshake over it is the same one a remote worker makes.  It ignores
    SIGINT: a terminal Ctrl-C is for the coordinator, which stops it.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    ClusterWorker(
        SocketPairListener.address,
        transport=SocketPairTransport(sock),
        worker_id=worker_id,
        fault_plan=fault_plan,
    ).run(shared_tt)
