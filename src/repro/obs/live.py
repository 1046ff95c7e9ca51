"""Live solve telemetry: an in-process bus the engines publish to.

Offline observability (JSONL traces, the metrics registry) answers
questions after the run; this module answers them *during* it.  Two
pieces:

* :class:`TelemetryBus` — a thread-safe store holding the latest solve
  snapshot (incumbent, optimality gap, vertices/second, frontier depth
  profile, transposition-table occupancy, per-rule prune counts,
  per-worker gauges), a bounded history of ``(elapsed, gap, vps)``
  samples for sparklines, and a bounded ring of the most recent
  low-frequency events.  The ring doubles as the crash *flight
  recorder*: :meth:`TelemetryBus.flight_events` returns the last N
  events for a post-mortem dump.  Readers (the HTTP server in
  :mod:`repro.obs.serve`, tests) only ever see copies.
* :class:`LiveMonitor` — the engine-facing adapter.  It owns a bus,
  exposes an :class:`~repro.obs.events.EventSink` that forwards only
  low-frequency events (``accepts`` rejects the sampled explore/prune/
  goal kinds, so the hot loop never builds payloads for it), and a
  time-rate-limited :meth:`LiveMonitor.on_sample` hook the engine calls
  every few dozen explored vertices.  Between the cheap gate and the
  sampling interval the monitor stays cheap; the ``hard-monitored``
  workload of ``python -m perf`` measures its cost end to end, and
  ``tests/test_gate_live.py`` checks that it never changes the search.

The monitor is wired through :class:`repro.obs.Observability` like
every other facility: absent by default, one ``is not None`` check when
off.  Crucially, attaching a monitor does *not* disable the engine's
fused hot path — the engine decides fusion from the user's sink alone.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from typing import Any

from .events import SAMPLED_KINDS, BaseSink, EventSink

__all__ = ["TelemetryBus", "LiveMonitor", "WorkerStats", "write_flight_dump"]

#: Depth histogram levels beyond this are folded into the last bucket.
_MAX_DEPTH_BUCKETS = 64


class WorkerStats:
    """Per-worker gauges aggregated by the cluster coordinator.

    Built from the heartbeat frames every cluster worker sends (remote,
    or local under ``repro solve --workers``; see :mod:`repro.cluster.worker`):
    approximate counts derived from bound-channel polls, the
    vertices/second rate over the window since the previous heartbeat,
    plus coordinator-side facts (lease age, shard accounting, liveness).
    """

    __slots__ = (
        "slot", "shard", "explored", "vps",
        "restarts", "heartbeat", "alive",
        "name", "lease_age", "done", "retried", "stolen",
    )

    def __init__(
        self,
        slot: int,
        *,
        shard: int | None = None,
        explored: int = 0,
        vps: float = 0.0,
        restarts: int = 0,
        heartbeat: float | None = None,
        alive: bool = True,
        name: str | None = None,
        lease_age: float | None = None,
        done: int = 0,
        retried: int = 0,
        stolen: int = 0,
    ) -> None:
        self.slot = slot
        self.shard = shard
        self.explored = explored
        self.vps = vps
        self.restarts = restarts
        self.heartbeat = heartbeat if heartbeat is not None else time.monotonic()
        self.alive = alive
        # Cluster-mode extras (None/0 for in-process workers): the
        # worker's self-chosen id, its coordinator-side lease age, and
        # its shard accounting.  ``as_dict`` includes them only when a
        # name is set, so single-machine /status payloads are unchanged.
        self.name = name
        self.lease_age = lease_age
        self.done = done
        self.retried = retried
        self.stolen = stolen

    def as_dict(self) -> dict[str, Any]:
        row = {
            "slot": self.slot,
            "shard": self.shard,
            "explored": self.explored,
            "vps": round(self.vps, 1),
            "restarts": self.restarts,
            "heartbeat_age": round(
                max(0.0, time.monotonic() - self.heartbeat), 3
            ),
            "alive": self.alive,
        }
        if self.name is not None:
            row["name"] = self.name
            row["lease_age"] = (
                round(self.lease_age, 3) if self.lease_age is not None else None
            )
            row["done"] = self.done
            row["retried"] = self.retried
            row["stolen"] = self.stolen
        return row


class TelemetryBus:
    """Thread-safe latest-state store + bounded event ring + history.

    One writer (the solving thread, or the parallel coordinator) and
    any number of readers (HTTP handler threads).  All methods take the
    internal lock; snapshots are deep-enough copies that readers can
    serialize them without racing the writer.
    """

    def __init__(
        self, *, ring_size: int = 256, history_size: int = 600
    ) -> None:
        if ring_size < 1:
            raise ValueError(f"ring_size must be >= 1, got {ring_size}")
        self.ring_size = ring_size
        self.history_size = history_size
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._status: dict[str, Any] = {}
        self._workers: dict[int, WorkerStats] = {}
        self._events: list[dict[str, Any]] = []
        self._seq = 0
        self._history: list[tuple[float, float | None, float]] = []
        self._t0 = time.perf_counter()

    # -- writer side ---------------------------------------------------

    def update(self, **fields: Any) -> None:
        """Merge fields into the latest status snapshot."""
        with self._lock:
            self._status.update(fields)

    def set_worker(self, stats: WorkerStats) -> None:
        with self._lock:
            self._workers[stats.slot] = stats

    def add_sample(
        self, elapsed: float, gap: float | None, vps: float
    ) -> None:
        """Append one sparkline point, trimming to ``history_size``."""
        with self._lock:
            self._history.append((elapsed, gap, vps))
            if len(self._history) > self.history_size:
                del self._history[: -self.history_size]

    def record_event(self, kind: str, payload: dict[str, Any]) -> None:
        """Append an event to the ring and wake any SSE waiters."""
        with self._cond:
            self._seq += 1
            record = {
                "seq": self._seq,
                "t": round(time.perf_counter() - self._t0, 6),
                "ev": kind,
            }
            record.update(payload)
            self._events.append(record)
            if len(self._events) > self.ring_size:
                del self._events[: -self.ring_size]
            self._cond.notify_all()

    # -- reader side ---------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The current status, workers and sparkline history (a copy)."""
        with self._lock:
            return {
                "status": dict(self._status),
                "workers": [
                    self._workers[slot].as_dict()
                    for slot in sorted(self._workers)
                ],
                "history": [
                    {"elapsed": round(e, 3), "gap": g, "vps": round(v, 1)}
                    for e, g, v in self._history
                ],
                "events_seen": self._seq,
            }

    def workers_alive(self) -> int:
        with self._lock:
            return sum(1 for w in self._workers.values() if w.alive)

    def worker_totals(self) -> tuple[int, float]:
        """(alive workers, summed vps) — the coordinator's aggregate."""
        with self._lock:
            alive = [w for w in self._workers.values() if w.alive]
            return len(alive), sum(w.vps for w in alive)

    def events_since(
        self, seq: int, timeout: float | None = None
    ) -> list[dict[str, Any]]:
        """Events with ``seq`` greater than the given one.

        Blocks up to ``timeout`` seconds for fresh events (None polls
        without blocking); returns copies.  The SSE endpoint drives its
        stream off this.
        """
        with self._cond:
            if timeout is not None and self._seq <= seq:
                self._cond.wait(timeout)
            return [dict(e) for e in self._events if e["seq"] > seq]

    def wake(self) -> None:
        """Release every :meth:`events_since` caller blocked waiting."""
        with self._cond:
            self._cond.notify_all()

    def flight_events(self) -> list[dict[str, Any]]:
        """The full ring, oldest first — the flight-recorder content."""
        with self._lock:
            return [dict(e) for e in self._events]


class _LiveEventSink(BaseSink):
    """Engine-facing sink forwarding low-frequency events to the bus.

    ``accepts`` rejects every sampled kind, so explore/prune/goal events
    cost the engine one set-membership test and nothing else.  Close is
    a no-op — the bus outlives the solve (dashboards read the terminal
    state; the flight recorder dumps after the engine returns).
    """

    #: Statically true — no per-event state backs the rejection, so the
    #: engine may skip this sink on sampled kinds without ever calling
    #: :meth:`accepts` (the hot loop drops it from per-vertex checks).
    rejects_sampled_kinds = True

    def __init__(self, bus: TelemetryBus) -> None:
        self.bus = bus

    def accepts(self, kind: str) -> bool:
        return kind not in SAMPLED_KINDS

    def emit(self, kind: str, payload: dict[str, Any]) -> None:
        self.bus.record_event(kind, payload)
        if kind == "incumbent":
            self.bus.update(
                incumbent=payload.get("cost"),
                incumbent_at=payload.get("elapsed"),
            )
        elif kind == "start":
            self.bus.update(
                phase="solving",
                n=payload.get("n"),
                m=payload.get("m"),
                incumbent=payload.get("initial_bound"),
            )


class LiveMonitor:
    """The engine's live-telemetry hook: a bus plus a sampling policy.

    ``interval``
        Minimum seconds between full snapshot samples (the frontier
        scan, gap computation and history point).  The engine calls
        :meth:`on_sample` at every chunk boundary (see
        :mod:`repro.core.boundary`); everything beyond a clock read is
        gated behind this interval.
    ``ring_size``
        Flight-recorder depth: how many recent events survive a crash.
    """

    def __init__(
        self, *, interval: float = 1.0, ring_size: int = 256
    ) -> None:
        if interval < 0:
            raise ValueError(f"interval must be >= 0, got {interval}")
        self.interval = interval
        self.bus = TelemetryBus(ring_size=ring_size)
        self._sink = _LiveEventSink(self.bus)
        self._next_sample = 0.0
        #: Last computed optimality gap (None before the first sample
        #: or when the incumbent/open bound is missing).  The stderr
        #: heartbeat reads this.
        self.last_gap: float | None = None
        self.samples = 0

    @property
    def event_sink(self) -> EventSink:
        return self._sink

    def on_sample(
        self,
        *,
        stats,
        incumbent: float,
        frontier,
        vertex_lb: float | None = None,
        stop_on_bound: bool = False,
        dominance=None,
    ) -> bool:
        """Engine check-in: snapshot the solve if the interval elapsed.

        Returns True when a sample was taken (tests key off this).
        ``vertex_lb`` is the in-hand vertex's bound — under best-first
        selection it *is* the minimum open bound, making the gap exact
        without scanning the frontier.
        """
        now = time.perf_counter()
        if now < self._next_sample:
            return False
        self._next_sample = now + self.interval

        elapsed = stats.time_since_start()
        vps = stats.generated / elapsed if elapsed > 0 else 0.0

        frontier_lb, depths = frontier.open_profile(_MAX_DEPTH_BUCKETS)
        open_lb: float | None = vertex_lb
        if not (stop_on_bound and vertex_lb is not None) and (
            frontier_lb is not None
            and (open_lb is None or frontier_lb < open_lb)
        ):
            open_lb = frontier_lb

        gap: float | None = None
        if open_lb is not None and not math.isinf(incumbent):
            gap = max(0.0, incumbent - open_lb)
        self.last_gap = gap

        tt: dict[str, Any] = {}
        if dominance is not None:
            tel = dominance.telemetry()
            if tel:
                cap = int(tel.get("tt_capacity", 0) or 0)
                filled = int(tel.get("tt_filled", 0) or 0)
                probes = int(tel.get("tt_hits", 0)) + int(
                    tel.get("tt_misses", 0)
                )
                tt = {
                    "tt_filled": filled,
                    "tt_capacity": cap,
                    "tt_occupancy": round(filled / cap, 4) if cap else None,
                    "tt_hit_rate": (
                        round(int(tel.get("tt_hits", 0)) / probes, 4)
                        if probes
                        else None
                    ),
                }

        self.bus.update(
            phase="solving",
            elapsed=round(elapsed, 3),
            explored=stats.explored,
            generated=stats.generated,
            active=len(frontier),
            incumbent=None if math.isinf(incumbent) else incumbent,
            open_lower_bound=open_lb,
            gap=gap,
            vps=round(vps, 1),
            depth_profile={str(k): v for k, v in sorted(depths.items())},
            prunes={
                "bound": stats.pruned_children,
                "stale_active": stats.pruned_active,
                "dominated": stats.pruned_dominated,
                "duplicate": stats.pruned_duplicate,
                "infeasible": stats.pruned_infeasible,
            },
            **tt,
        )
        self.bus.add_sample(elapsed, gap, vps)
        self.samples += 1
        return True

    # -- parallel coordinator hooks ------------------------------------

    def on_worker_down(self, slot: int, restarts: int) -> None:
        """Mark a slot dead-until-respawned after a reclaim."""
        with self.bus._lock:
            prev = self.bus._workers.get(slot)
        stats = WorkerStats(
            slot,
            shard=prev.shard if prev is not None else None,
            explored=prev.explored if prev is not None else 0,
            vps=0.0,
            restarts=restarts,
            alive=False,
            name=prev.name if prev is not None else None,
            done=prev.done if prev is not None else 0,
            retried=prev.retried if prev is not None else 0,
            stolen=prev.stolen if prev is not None else 0,
        )
        self.bus.set_worker(stats)

    def on_cluster_member(
        self,
        slot: int,
        *,
        name: str,
        shard: int | None,
        explored: int,
        vps: float,
        lease_age: float,
        done: int,
        retried: int,
        stolen: int,
        alive: bool = True,
    ) -> None:
        """Absorb one cluster member's liveness row (coordinator-side).

        The cluster coordinator refreshes every member on its sampling
        cadence, so ``/status`` shows per-worker lease age and shard
        accounting alongside the usual explored/vps gauges.
        """
        self.bus.set_worker(
            WorkerStats(
                slot,
                shard=shard,
                explored=explored,
                vps=vps,
                alive=alive,
                name=name,
                lease_age=lease_age,
                done=done,
                retried=retried,
                stolen=stolen,
            )
        )

    # -- flight recorder ----------------------------------------------

    def dump_flight(self, path: str, *, reason: str = "crash") -> str:
        """Write the flight-recorder dump (last-N events + final state).

        Atomic (tmp + rename) so a dump racing a second signal never
        leaves a half-written post-mortem.  Returns the path written.
        """
        dump = {
            "schema": "repro-flight/1",
            "reason": reason,
            "status": self.bus.snapshot(),
            "events": self.bus.flight_events(),
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(dump, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
        return path


def write_flight_dump(
    monitor: LiveMonitor | None,
    *,
    checkpoint_path: str | None,
    reason: str,
    default_path: str = "repro-flight.json",
) -> str | None:
    """CLI helper: dump the flight recorder next to the final checkpoint.

    With a checkpoint the dump lands at ``<checkpoint>.flight.json`` —
    alongside the snapshot a resume would load — otherwise at
    ``default_path``.  Returns the path, or None when no monitor is
    attached.
    """
    if monitor is None:
        return None
    path = (
        f"{checkpoint_path}.flight.json"
        if checkpoint_path
        else default_path
    )
    return monitor.dump_flight(path, reason=reason)
