"""The search's one periodic hook: everything a loop does besides expanding.

Both loops that run a search — the Python loop in
:meth:`~repro.core.engine.BranchAndBound.solve` and the native chunk
driver (:mod:`repro.core._native`) — call :meth:`Boundary.service` at a
single program point: a vertex has been popped and survived the stale
check, but is neither counted as explored nor expanded.  They call it
whenever ``stats.explored >= boundary.check_at``, so the loop pays one
integer compare per vertex for every hook together.

``check_at`` starts at the run's initial explored count (the first
popped vertex always meets a boundary, so a stop token that is already
set ends the run before anything is expanded) and then advances to the
smaller of the loop's next cadence multiple and the checkpointer's next
due count.  Snapshots are therefore cut at exactly the explored count
:meth:`Checkpointer.due` names, on either tier.  With no hook attached
``check_at`` never comes due.

A boundary services, in order: the stop token, the time and memory
limits, a due checkpoint, the bound channel's poll, the live monitor's
sample and the progress heartbeat, and — on the native tier only,
where no per-vertex telemetry runs — the active-set gauge and the two
per-explore histograms, sampled once per boundary instead of at every
explored vertex.
"""

from __future__ import annotations

import math

from .elimination import pruning_threshold
from .resources import current_rss_bytes

__all__ = ["Boundary", "NEVER"]

#: ``check_at`` of a boundary with nothing to service.
NEVER = 1 << 62


class Boundary:
    """Stop, limits, checkpoints, bound channel and samplers of one solve.

    ``snapshot(frontier, in_hand)`` builds the
    :class:`~repro.core.checkpoint.SearchCheckpoint` of the search as it
    stands; the engine supplies it because only the engine knows where
    the incumbent schedule lives.  ``metrics`` gets the active-set gauge
    and histograms registered here; ``sample_metrics`` is set only on the
    native tier (the Python loop observes them at every explored vertex).

    After :meth:`service` the loop reads back ``incumbent`` and
    ``threshold`` (a polled external bound may have tightened them) and
    ``check_at``.  ``stopped`` holds ``(kind, detail)`` once a stop
    condition fired.
    """

    def __init__(
        self,
        *,
        stats,
        rb,
        cadence: int,
        inaccuracy: float,
        prunes_active: bool,
        stop=None,
        checkpoint=None,
        snapshot=None,
        channel=None,
        live=None,
        progress=None,
        metrics=None,
        sample_metrics: bool = False,
        sink=None,
        stop_on_bound: bool = False,
        dominance=None,
    ) -> None:
        self.stats = stats
        self.rb = rb
        self.cadence = cadence
        self.inaccuracy = inaccuracy
        self.prunes_active = prunes_active
        self.stop = stop
        self.time_limit = None if math.isinf(rb.time_limit) else rb.time_limit
        self.memory_limit = (
            None if math.isinf(rb.max_memory_bytes) else rb.max_memory_bytes
        )
        self.checkpoint = checkpoint
        self.snapshot = snapshot
        self.channel = channel
        self.live = live
        self.progress = progress
        self.sink = sink
        self.stop_on_bound = stop_on_bound
        self.dominance = dominance
        self.m_active = self.h_active = self.h_gap = None
        if metrics is not None:
            from ..obs.metrics import DEFAULT_GAP_BUCKETS, DEFAULT_SIZE_BUCKETS

            self.m_active = metrics.gauge(
                "bnb_active_set_size", "Active-set size at last explore"
            )
            self.h_gap = metrics.histogram(
                "bnb_lower_bound_gap",
                "Incumbent cost minus selected vertex's lower bound",
                buckets=DEFAULT_GAP_BUCKETS,
            )
            self.h_active = metrics.histogram(
                "bnb_active_set_size_distribution",
                "Active-set size observed at each explored vertex",
                buckets=DEFAULT_SIZE_BUCKETS,
            )
        self.metrics = metrics
        self.sample_metrics = sample_metrics and metrics is not None
        self.incumbent = math.inf
        self.threshold = math.inf
        self.stopped: tuple[str, str] | None = None
        active = self.sample_metrics or any(
            hook is not None
            for hook in (
                stop, self.time_limit, self.memory_limit, checkpoint,
                channel, live, progress,
            )
        )
        self.check_at = stats.explored if active else NEVER

    # ------------------------------------------------------------------

    def service(self, frontier, vertex, incumbent: float, threshold: float):
        """Run every due hook; return the stop kind, or None to go on.

        ``vertex`` is the popped, unexpanded vertex (the snapshot's
        first entry).  A stop leaves it in the caller's hands as the
        pending vertex of the open search.
        """
        stats = self.stats
        self.incumbent = incumbent
        self.threshold = threshold
        kind = self._stop_condition()
        if kind is not None:
            return kind
        checkpoint = self.checkpoint
        if checkpoint is not None and checkpoint.due(stats.explored):
            self.write_checkpoint(frontier, vertex)
        if self.channel is not None:
            ext = self.channel.poll(stats.explored)
            if ext < self.incumbent:
                # A concurrent search found something better: adopt its
                # cost for pruning only — the schedule stays with
                # whoever published it.
                self.incumbent = ext
                self.threshold = pruning_threshold(ext, self.inaccuracy)
                if self.prunes_active:
                    stats.pruned_active += frontier.prune_above(self.threshold)
        if self.live is not None or self.progress is not None:
            self._sample(frontier, vertex.lower_bound)
        if self.sample_metrics:
            size = len(frontier)
            self.m_active.set(size)
            self.h_active.observe(size)
            if not math.isinf(self.incumbent):
                self.h_gap.observe(self.incumbent - vertex.lower_bound)
        at = (stats.explored // self.cadence + 1) * self.cadence
        due = checkpoint.next_due if checkpoint is not None else None
        self.check_at = at if due is None or at < due else due
        return None

    def _stop_condition(self):
        stats = self.stats
        if self.stop is not None and self.stop.is_set():
            stats.interrupted = True
            return self._stopped("INTERRUPTED", self.stop.reason or "")
        if (
            self.time_limit is not None
            and stats.time_since_start() >= self.time_limit
        ):
            stats.time_limit_hit = True
            return self._stopped("TIMELIMIT", f"{self.time_limit}s")
        if (
            self.memory_limit is not None
            and current_rss_bytes() >= self.memory_limit
        ):
            stats.memory_limit_hit = True
            return self._stopped(
                "MEMLIMIT", f"rss >= {self.memory_limit:g}B"
            )
        return None

    def _stopped(self, kind: str, detail: str) -> str:
        self.stopped = (kind, detail)
        sink = self.sink
        if sink is not None and sink.accepts("resource"):
            sink.emit("resource", {"kind": kind, "detail": detail})
        return kind

    def _sample(self, frontier, vertex_lb: float) -> None:
        incumbent = self.incumbent
        live = self.live
        if live is not None:
            live.on_sample(
                stats=self.stats,
                incumbent=incumbent,
                frontier=frontier,
                vertex_lb=vertex_lb,
                stop_on_bound=self.stop_on_bound,
                dominance=self.dominance,
            )
        progress = self.progress
        if progress is not None:
            # Under best-first selection the in-hand bound is the
            # minimum open bound, so the heartbeat's gap is exact;
            # otherwise reuse the live monitor's last sampled gap.
            if self.stop_on_bound and not math.isinf(incumbent):
                gap = max(0.0, incumbent - vertex_lb)
            elif live is not None:
                gap = live.last_gap
            else:
                gap = None
            stats = self.stats
            progress.maybe_emit(
                explored=stats.explored,
                generated=stats.generated,
                active=len(frontier),
                incumbent=incumbent,
                max_vertices=self.rb.max_vertices,
                time_limit=self.rb.time_limit,
                gap=gap,
            )

    # ------------------------------------------------------------------

    def write_checkpoint(self, frontier, in_hand, *, final: bool = False):
        """Snapshot the search (``in_hand`` first) and announce it."""
        checkpoint = self.checkpoint
        path = checkpoint.write(self.snapshot(frontier, in_hand))
        sink = self.sink
        if sink is not None and sink.accepts("checkpoint"):
            payload = {
                "version": checkpoint.version - 1,
                "explored": self.stats.explored,
                "generated": self.stats.generated,
                "active": len(frontier) + (in_hand is not None),
                "path": path,
            }
            if final:
                payload["final"] = True
            sink.emit("checkpoint", payload)
        if self.metrics is not None:
            self.metrics.counter(
                "bnb_checkpoint_written_total", "Search snapshots written"
            ).inc()
        return path

    def finish(
        self, status: str, *, optimal: bool, frontier, incumbent,
        open_lower_bound,
    ) -> None:
        """Close the heartbeat and leave ``/status`` showing the outcome.

        Short solves may never reach the sampling interval, so the live
        monitor always gets a terminal snapshot.
        """
        stats = self.stats
        if self.progress is not None:
            self.progress.finish(f"{status}; {stats.summary()}")
        live = self.live
        if live is None:
            return
        if incumbent is not None and open_lower_bound is not None:
            gap = max(0.0, incumbent - open_lower_bound)
        elif optimal:
            gap = 0.0
        else:
            gap = None
        live.last_gap = gap
        live.bus.update(
            gap=gap,
            phase="done",
            result_status=status,
            elapsed=round(stats.elapsed, 3),
            explored=stats.explored,
            generated=stats.generated,
            active=len(frontier),
            incumbent=(
                None
                if incumbent is None or math.isinf(incumbent)
                else incumbent
            ),
            open_lower_bound=open_lower_bound,
            vps=round(stats.vertices_per_second or 0.0, 1),
        )
