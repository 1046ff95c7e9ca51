"""Search statistics.

The paper's secondary performance measure is the number of searched
(generated active) vertices; :class:`SearchStats` tracks that plus the
full breakdown needed by the figures and ablations: explored vertices,
per-cause pruning counters, incumbent updates, peak active-set size (the
memory-locality proxy behind the paper's Section 6 thrashing discussion)
and wall-clock timing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["SearchStats", "TT_COUNTERS", "describe_engine"]

#: The transposition-table counters a solve records on its stats.  All
#: but ``tt_capacity`` (the table's slot count) count events of this
#: solve; ``tt_filled`` counts the empty slots it filled.
TT_COUNTERS = (
    "tt_hits",
    "tt_misses",
    "tt_inserts",
    "tt_evictions",
    "tt_rejects",
    "tt_collisions",
    "tt_filled",
    "tt_capacity",
)


def describe_engine(path: str, fallback: str | None) -> str:
    """``engine:`` line text: the tier, then why a faster one was refused."""
    text = path or "unknown"
    return f"{text} (fallback: {fallback})" if fallback else text


@dataclass
class SearchStats:
    """Mutable counters filled in by one engine run."""

    #: Vertices created by branching (the paper's "generated active
    #: vertices" — its primary complexity measure).  The root vertex
    #: counts as generated.
    generated: int = 0
    #: Vertices selected from the active set and branched.
    explored: int = 0
    #: Children discarded by the elimination rule E before entering AS.
    pruned_children: int = 0
    #: Active vertices swept from AS when the incumbent improved (U/DBAS).
    pruned_active: int = 0
    #: Children discarded by the dominance rule D.
    pruned_dominated: int = 0
    #: Children discarded as duplicates of an already-seen state (the
    #: transposition layer), counted apart from ``pruned_dominated`` as
    #: they are pruned.
    pruned_duplicate: int = 0
    #: Children discarded by the characteristic function F.
    pruned_infeasible: int = 0
    #: Vertices dropped by MAXSZAS / MAXSZDB overflow.
    dropped_resource: int = 0
    #: Goal vertices evaluated (complete schedules compared to incumbent).
    goals_evaluated: int = 0
    #: Times the incumbent improved.
    incumbent_updates: int = 0
    #: Largest active-set size observed.
    peak_active: int = 0
    #: Wall-clock duration of the solve, in seconds.  For a resumed run
    #: this includes the time accumulated before the checkpoint (see
    #: ``_elapsed_base``), so anytime plots stay monotone across kills.
    elapsed: float = 0.0
    #: Flags raised during the run.
    time_limit_hit: bool = False
    truncated: bool = False
    #: The loop was stopped cooperatively (SIGINT/SIGTERM/StopToken).
    interrupted: bool = False
    #: The resident-set ceiling (MEMLIMIT) tripped.
    memory_limit_hit: bool = False
    #: Engine tier that ran the search: ``native`` (the C chunk driver),
    #: ``fused`` or ``reference``.
    engine_path: str = ""
    #: Why a faster tier of the requested engine was refused, e.g.
    #: ``"trace sink attached"`` or ``"native kernel unavailable: …"``
    #: (None when the fastest tier ran).
    engine_fallback: str | None = None
    #: Transposition-table counters (:data:`TT_COUNTERS`; all 0 without
    #: the layer).  Like the engine tier they stay out of
    #: :meth:`as_dict`; a snapshot stores them apart, and a resumed
    #: solve's fresh table adds its events to them (``tt_filled`` and
    #: ``tt_capacity`` then describe the fresh table).
    tt_hits: int = 0
    tt_misses: int = 0
    tt_inserts: int = 0
    tt_evictions: int = 0
    tt_rejects: int = 0
    tt_collisions: int = 0
    tt_filled: int = 0
    tt_capacity: int = 0
    _t0: float = field(default=0.0, repr=False)
    _stopped: bool = field(default=False, repr=False)
    #: Seconds already spent before this process's clock started (set
    #: when resuming from a checkpoint).
    _elapsed_base: float = field(default=0.0, repr=False)

    # ------------------------------------------------------------------

    def start_clock(self) -> None:
        self._t0 = time.perf_counter()
        self._stopped = False

    def stop_clock(self) -> None:
        """Record ``elapsed``; idempotent so the engine can call it both
        on the normal path and in a ``finally:`` (exception mid-solve)
        without the second call inflating the measurement."""
        if not self._stopped:
            self.elapsed = self._elapsed_base + time.perf_counter() - self._t0
            self._stopped = True

    def time_since_start(self) -> float:
        return self._elapsed_base + time.perf_counter() - self._t0

    def absorb(self, other: "SearchStats") -> None:
        """Fold a sub-search's counters into this run's totals.

        Used by the shard coordinator when merging the shallow pass and
        per-worker results.  ``peak_active``, ``tt_filled`` and
        ``tt_capacity`` keep the largest single value (each sub-search
        fills a table of its own, so the fill stays within capacity);
        the other ``tt_*`` counters sum.
        ``elapsed`` is deliberately not merged — the caller's wall clock
        already spans the sub-searches (across processes, the sums
        would exceed the wall clock).
        """
        self.generated += other.generated
        self.explored += other.explored
        self.pruned_children += other.pruned_children
        self.pruned_active += other.pruned_active
        self.pruned_dominated += other.pruned_dominated
        self.pruned_duplicate += other.pruned_duplicate
        self.pruned_infeasible += other.pruned_infeasible
        self.dropped_resource += other.dropped_resource
        self.goals_evaluated += other.goals_evaluated
        self.incumbent_updates += other.incumbent_updates
        if other.peak_active > self.peak_active:
            self.peak_active = other.peak_active
        for key in TT_COUNTERS:
            mine, theirs = getattr(self, key), getattr(other, key)
            if key in ("tt_filled", "tt_capacity"):
                setattr(self, key, max(mine, theirs))
            else:
                setattr(self, key, mine + theirs)
        self.time_limit_hit = self.time_limit_hit or other.time_limit_hit
        self.truncated = self.truncated or other.truncated
        self.interrupted = self.interrupted or other.interrupted
        self.memory_limit_hit = self.memory_limit_hit or other.memory_limit_hit
        if not self.engine_path:
            # A merge of worker results reports the tier the workers ran.
            self.engine_path = other.engine_path
            self.engine_fallback = other.engine_fallback

    @property
    def stopped_early(self) -> bool:
        """A stop flag is up: the search left open work behind."""
        return (
            self.interrupted
            or self.time_limit_hit
            or self.memory_limit_hit
            or self.truncated
        )

    @property
    def pruned_total(self) -> int:
        return (
            self.pruned_children
            + self.pruned_active
            + self.pruned_dominated
            + self.pruned_duplicate
            + self.pruned_infeasible
        )

    @property
    def vertices_per_second(self) -> float:
        return self.generated / self.elapsed if self.elapsed > 0 else 0.0

    def as_dict(self) -> dict:
        """JSON-ready snapshot (trace summary events, metrics exports).

        Counters and stop flags only: the engine tier is a property of
        the process that ran, not of the search, so it is reported next
        to this dict (summary events, ``/status``) rather than in it,
        and snapshots stay comparable across tiers.
        """
        return {
            "generated": self.generated,
            "explored": self.explored,
            "pruned_children": self.pruned_children,
            "pruned_active": self.pruned_active,
            "pruned_dominated": self.pruned_dominated,
            "pruned_duplicate": self.pruned_duplicate,
            "pruned_infeasible": self.pruned_infeasible,
            "dropped_resource": self.dropped_resource,
            "goals_evaluated": self.goals_evaluated,
            "incumbent_updates": self.incumbent_updates,
            "peak_active": self.peak_active,
            "elapsed": self.elapsed,
            "time_limit_hit": self.time_limit_hit,
            "truncated": self.truncated,
            "interrupted": self.interrupted,
            "memory_limit_hit": self.memory_limit_hit,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchStats":
        """Rebuild counters from an :meth:`as_dict` snapshot.

        Used when resuming from a checkpoint.  The stop-reason flags are
        deliberately *not* restored — whatever ended the previous run
        (a MAXVERT cap, a SIGTERM) says nothing about how this one will
        end — except ``truncated`` when vertices were irrecoverably
        dropped by MAXSZAS/MAXSZDB, which does taint every continuation.
        The recorded ``elapsed`` becomes the resumed clock's base so the
        total spans both runs.  The ``tt_*`` counters, which a snapshot
        stores apart, are read too when present.
        """
        stats = cls()
        for key in TT_COUNTERS + (
            "generated",
            "explored",
            "pruned_children",
            "pruned_active",
            "pruned_dominated",
            "pruned_duplicate",
            "pruned_infeasible",
            "dropped_resource",
            "goals_evaluated",
            "incumbent_updates",
            "peak_active",
        ):
            setattr(stats, key, int(data.get(key, 0)))
        stats.truncated = stats.dropped_resource > 0
        stats._elapsed_base = float(data.get("elapsed", 0.0))
        return stats

    def summary(self) -> str:
        flags = []
        if self.time_limit_hit:
            flags.append("TIMELIMIT")
        if self.memory_limit_hit:
            flags.append("MEMLIMIT")
        if self.interrupted:
            flags.append("INTERRUPTED")
        if self.truncated:
            flags.append("TRUNCATED")
        tail = f" [{' '.join(flags)}]" if flags else ""
        return (
            f"generated={self.generated} explored={self.explored} "
            f"pruned={self.pruned_total} goals={self.goals_evaluated} "
            f"peakAS={self.peak_active} "
            f"t={self.elapsed:.3f}s ({self.vertices_per_second:,.0f} v/s){tail}"
        )
