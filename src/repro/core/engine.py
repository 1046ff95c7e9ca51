"""The parametrized branch-and-bound engine (Figure 1 of the paper).

The algorithm, parametrized by ``<B, S, E, F, D, L, U, BR, RB>``:

1. initialize the active set with the root vertex (an empty schedule)
   whose cost comes from the upper-bound provider ``U``;
2. repeatedly select a vertex with ``S`` (honouring its stop condition),
   branch with ``B``, bound each child with ``L``, and eliminate with
   ``E`` — goal vertices never enter the active set: the cheapest goal
   in ``DB`` either becomes the new best vertex or is pruned (Figure 2);
3. stop when the active set empties, the selection rule's stop
   condition fires, or a resource bound ``RB`` trips.

Unless the best vertex is still the root (no complete schedule at or
below the initial bound was ever found), the best vertex holds the
optimal solution — or a guaranteed/approximate one, depending on the
parametrization, which the returned :class:`BnBResult` spells out in its
:class:`SolveStatus`.

Structure
---------
:meth:`BranchAndBound.solve` validates its hooks and seeds the search:
the incumbent from ``U`` (or from a snapshot or a subtree spec) and the
active set.  :func:`choose_tier` then picks the one tier that runs it —
native, fused or reference — and names the refusal that kept a faster
one out.  One runner executes Steps 3-10: :func:`_run_native` hands the
loop to the compiled chunk driver, :func:`_run_loop` is the Python loop
for the other two tiers.  Back in ``solve``, the status
and :func:`anytime_wrap_up` (open lower bound, final snapshot) build the
:class:`BnBResult`, and :func:`publish` reports it once; the cluster
coordinator ends a parallel solve through the same two functions.

Per-vertex observers (an event sink, a profiler) cost one ``is not
None`` check on a local when absent.  Everything periodic — stop token,
limits, checkpoints, bound-channel polls, live samples, heartbeats, the
search gauges — rides one :class:`~repro.core.boundary.Boundary`, which
both runners call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from ..model.compile import CompiledProblem, compile_problem
from ..model.platform import Platform
from ..model.schedule import Schedule
from ..model.taskgraph import TaskGraph
from ..obs import Observability
from ..obs.metrics import MetricsRegistry
from ..obs.profile import PhaseBreakdown
from .checkpoint import (
    Checkpointer,
    SearchCheckpoint,
    StopToken,
    problem_fingerprint,
)
from .boundary import Boundary
from .elimination import NoElimination, UDBASElimination, pruning_threshold
from .expand import FusedExpander
from .params import ENGINES, BnBParameters
from .selection import (
    _DepthLLBFrontier,
    _FIFOFrontier,
    _LIFOFrontier,
    _LLBFrontier,
)
from .stats import TT_COUNTERS, SearchStats
from .vertex import Vertex

if TYPE_CHECKING:
    from .shards import FrontierCollector

__all__ = [
    "SolveStatus",
    "BnBResult",
    "BranchAndBound",
    "SubtreeSpec",
    "solve",
]

#: Explored vertices between two boundaries of the Python loop.  The
#: stop token, limits, checkpoint, bound-channel poll and samplers all
#: ride this one cadence.
_LOOP_CADENCE = 64

#: Explored vertices between two boundaries of the native driver.  One
#: boundary under the CLI's stop token (return, drain, service, retarget)
#: costs 8-25 us of Python; on the paper-profile seed 9, m=8 solve (17.8M
#: explored, ~6.5M explored/s on a 2-vCPU Xeon) that is 1.1-1.4% of
#: driver time at a cadence of 4096 and 0.35-0.5% at this one, while a
#: stop still lands within ~5 ms.
_DRIVER_CADENCE = 1 << 15

#: Frontier disciplines the native chunk driver replicates exactly.
_NATIVE_FRONTIER_KINDS = {
    _LIFOFrontier: 0,
    _FIFOFrontier: 1,
    _LLBFrontier: 2,
    _DepthLLBFrontier: 3,
}

#: The engine tiers, fastest first; ``ENGINES[i]`` starts at ``_TIERS[i]``.
_TIERS = ("native", "fused", "reference")

_CHILD_ORDER_CODES = {"generation": 0, "best-last": 1, "best-first": 2}

#: C-level sort key for child ordering (avoids a lambda per comparison).
_BY_BOUND = attrgetter("lower_bound")


class SolveStatus(Enum):
    """What the returned solution is worth."""

    #: Proven optimal (optimal branching, BR = 0, search ran to completion).
    OPTIMAL = "optimal"
    #: Within ``BR * |L|`` of the optimum (optimal branching, BR > 0,
    #: search ran to completion).
    NEAR_OPTIMAL = "near-optimal"
    #: No guarantee (approximate branching rule DF/BF1).
    APPROXIMATE = "approximate"
    #: Stopped early because the characteristic function's target was met.
    TARGET_REACHED = "target-reached"
    #: TIMELIMIT expired; best solution found so far.
    TIMEOUT = "timeout"
    #: SIGINT/SIGTERM (or a :class:`~repro.core.checkpoint.StopToken`)
    #: stopped the loop cooperatively; best solution found so far.
    INTERRUPTED = "interrupted"
    #: The MEMLIMIT resident-set ceiling tripped; best solution so far.
    MEMORY = "memory"
    #: A storage bound dropped vertices; best solution found so far.
    TRUNCATED = "truncated"
    #: No complete schedule at or below the initial bound was found
    #: (the best vertex is still the root).
    FAILED = "failed"

    @property
    def has_guarantee(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.NEAR_OPTIMAL)


@dataclass(frozen=True)
class BnBResult:
    """Outcome of one branch-and-bound solve."""

    problem: CompiledProblem
    params: BnBParameters
    status: SolveStatus
    #: Maximum task lateness of the returned schedule (inf when FAILED
    #: with no initial solution).
    best_cost: float
    #: Task-to-processor assignment of the best schedule (None if FAILED).
    proc_of: tuple[int, ...] | None
    #: Start times of the best schedule (None if FAILED).
    start: tuple[float, ...] | None
    #: Where the returned schedule came from: "search" when the B&B
    #: improved on the initial bound, "initial-upper-bound" otherwise.
    incumbent_source: str
    #: Cost delivered by the upper-bound provider U.
    initial_upper_bound: float
    #: Counters and timing for the run (always set by the engine).
    stats: SearchStats
    #: Per-phase timing, present when a profiler was attached.
    profile: PhaseBreakdown | None = None
    #: Smallest lower bound among vertices still open when an early stop
    #: (interrupt/timeout/memory, or a MAXVERT cap with nothing dropped)
    #: ended the search; None when the search completed or when dropped
    #: vertices make the remaining bounds meaningless.
    open_lower_bound: float | None = None
    #: Where the final snapshot was written, when checkpointing was on.
    checkpoint_path: str | None = None

    @property
    def found_solution(self) -> bool:
        return self.proc_of is not None

    @property
    def optimality_gap(self) -> float | None:
        """Upper bound on ``best_cost - optimum`` for early-stopped runs.

        Every unexplored solution lies below some open vertex, so the
        optimum is at least ``min(open_lower_bound, best_cost)``; the
        gap is how far above that floor the incumbent sits.  ``None``
        when no bound can be claimed (no solution, or no open-bound
        information — completed runs express their guarantee through
        ``status`` instead).
        """
        if not self.found_solution or self.open_lower_bound is None:
            return None
        return max(0.0, self.best_cost - self.open_lower_bound)

    @property
    def is_feasible(self) -> bool:
        """Whether the returned schedule meets every deadline."""
        return self.found_solution and self.best_cost <= 0.0

    def schedule(self) -> Schedule | None:
        """Materialize the best schedule (None when FAILED)."""
        if self.proc_of is None:
            return None
        return self.problem.make_schedule(self.proc_of, self.start)

    def summary(self) -> str:
        cost = "-" if not self.found_solution else f"{self.best_cost:g}"
        base = (
            f"{self.status.value}: L_max={cost} "
            f"(U={self.initial_upper_bound:g}, from {self.incumbent_source}); "
            f"{self.stats.summary()}"
        )
        gap = self.optimality_gap
        if gap is not None:
            base += f"\ngap: <= {gap:g} (best open bound {self.open_lower_bound:g})"
        if self.checkpoint_path is not None:
            base += f"\ncheckpoint: {self.checkpoint_path}"
        if self.profile is not None:
            return f"{base}\n{self.profile.summary()}"
        return base


def _json_num(value: float) -> float | None:
    """JSON has no inf/nan; summaries carry None instead."""
    return None if (math.isinf(value) or math.isnan(value)) else value


@dataclass(frozen=True)
class SubtreeSpec:
    """Restart point for a search rooted at a mid-tree vertex.

    The parallel driver ships one of these (plus the compiled problem)
    to a worker process, which resumes the search exactly where the
    coordinating search left off: the root vertex is ``state`` with the
    already-computed ``lower_bound``, the incumbent to beat is
    ``incumbent_cost`` (the upper-bound provider is *not* consulted —
    that already happened once, in the coordinator), and at most
    ``max_generated`` further vertices may be generated before the
    MAXVERT semantics kick in.  The sub-search's ``generated`` counter
    excludes the root (the coordinator already counted it when it was
    generated as a child), so shard-summed counters line up with a
    single sequential run.
    """

    state: object  # SearchState; untyped here to avoid a hot-path import
    lower_bound: float
    incumbent_cost: float
    max_generated: float = math.inf


#: The ``bnb_<name>_total`` counters a finished solve adds to, each the
#: :class:`SearchStats` field of that name (less a ``_vertices`` suffix).
_COUNTERS = (
    ("generated_vertices",
     "Vertices created by branching (the paper's cost measure)"),
    ("explored_vertices", "Vertices selected from the active set and branched"),
    ("pruned_children", "Children discarded by the elimination rule E"),
    ("pruned_active", "Active vertices swept when the incumbent improved"),
    ("pruned_dominated", "Children discarded by the dominance rule D"),
    ("pruned_duplicate",
     "Children discarded as duplicate states (transposition hits)"),
    ("pruned_infeasible", "Children discarded by the characteristic function F"),
    ("dropped_resource", "Vertices dropped by MAXSZAS / MAXSZDB overflow"),
    ("goals_evaluated", "Complete schedules compared to the incumbent"),
    ("incumbent_updates", "Times the incumbent improved"),
)

#: The same for a solve that probed a transposition table.
_TT_COUNTERS = (
    ("tt_hits", "Transposition probes answered by a stored duplicate"),
    ("tt_misses", "Transposition probes that found no duplicate"),
    ("tt_inserts", "States recorded in the transposition table"),
    ("tt_evictions", "Stored states displaced by the replacement policy"),
    ("tt_rejects", "Insertions refused by the depth-preferred policy"),
    ("tt_collisions", "Equal 64-bit signatures with differing payloads"),
)


def _final_metrics(metrics: MetricsRegistry, result: BnBResult) -> None:
    """Fold a finished solve into the standard ``bnb_*`` instruments.

    Counters accumulate across solves sharing a registry (Prometheus
    counter semantics); gauges reflect the most recent run.
    """
    stats = result.stats
    c = metrics.counter
    for name, help_text in _COUNTERS:
        field = name.removesuffix("_vertices")
        c(f"bnb_{name}_total", help_text).inc(getattr(stats, field))
    c("bnb_solves_total", "Branch-and-bound runs recorded").inc()
    g = metrics.gauge
    g("bnb_engine_path",
      "Engine tier of the last run (1 on the label naming it)").label(
          path=stats.engine_path, fallback=stats.engine_fallback or "",
      ).set(1)
    g("bnb_peak_active_set_size",
      "Largest active-set size of the last run").set(stats.peak_active)
    g("bnb_elapsed_seconds", "Wall-clock of the last run").set(stats.elapsed)
    incumbent_cost = min(result.best_cost, result.initial_upper_bound)
    if not math.isinf(incumbent_cost):
        g("bnb_incumbent_cost",
          "Best maximum lateness found").set(incumbent_cost)
    if stats.tt_capacity:
        for name, help_text in _TT_COUNTERS:
            c(f"bnb_{name}_total", help_text).inc(getattr(stats, name))
        g("bnb_tt_filled_entries",
          "Occupied transposition slots after the last run").set(
              stats.tt_filled)
        g("bnb_tt_capacity_entries",
          "Total transposition slots (memory bound / entry size)").set(
              stats.tt_capacity)


def announce_start(
    obs: Observability | None,
    problem: CompiledProblem,
    params: BnBParameters,
    initial_bound: float,
) -> None:
    """Open a solve's report: re-arm the heartbeat, emit its ``start``."""
    if obs is None:
        return
    if obs.progress is not None:
        obs.progress.start()
    sink = obs.event_sink()
    if sink is not None and sink.accepts("start"):
        sink.emit(
            "start",
            {
                "n": problem.n,
                "m": problem.m,
                "initial_bound": _json_num(initial_bound),
                "params": params.describe(),
            },
        )


def publish(
    result: BnBResult, obs: Observability | None, *, active: int = 0
) -> None:
    """Report a finished solve, read from its result, to every consumer.

    The one end-of-solve report of :meth:`BranchAndBound.solve` and of
    the cluster coordinator: the ``bnb_*`` metrics, the terminal
    ``/status``, the ``tt`` (if a table was probed) and ``summary``
    events and the heartbeat's ``done`` line.  ``active`` is the size of
    the open search at the end.
    """
    if obs is None:
        return
    stats = result.stats
    status = result.status.value
    best_cost = _json_num(result.best_cost) if result.found_solution else None
    if obs.metrics is not None:
        _final_metrics(obs.metrics, result)
    live = obs.live
    if live is not None:
        gap = result.optimality_gap
        if gap is None and result.status is SolveStatus.OPTIMAL:
            gap = 0.0
        live.last_gap = gap
        live.bus.update(
            phase="done",
            result_status=status,
            best_cost=best_cost,
            incumbent=best_cost,
            gap=gap,
            open_lower_bound=result.open_lower_bound,
            elapsed=round(stats.elapsed, 3),
            explored=stats.explored,
            generated=stats.generated,
            active=active,
            vps=round(stats.vertices_per_second, 1),
            engine_path=stats.engine_path,
            engine_fallback=stats.engine_fallback,
        )
    sink = obs.event_sink()
    if sink is not None:
        if stats.tt_capacity and sink.accepts("tt"):
            tt = {key: getattr(stats, key) for key in TT_COUNTERS}
            sink.emit("tt", {"duplicate_pruned": stats.pruned_duplicate, **tt})
        if sink.accepts("summary"):
            profile = result.profile
            sink.emit(
                "summary",
                {
                    "status": status,
                    "best_cost": best_cost,
                    "initial_upper_bound": _json_num(result.initial_upper_bound),
                    "incumbent_source": result.incumbent_source,
                    "stats": stats.as_dict(),
                    "engine_path": stats.engine_path,
                    "engine_fallback": stats.engine_fallback,
                    "profile": profile.to_dict() if profile is not None else None,
                },
            )
    if obs.progress is not None:
        obs.progress.finish(f"{status}; {stats.summary()}")


def choose_tier(
    params, problem, prepared, frontier, dominance, *,
    hot_sink, profiled, dispatcher, early_stop, root_closed,
):
    """Pick the tier that runs one solve: ``(path, expander, fallback)``.

    Tiers, fastest first: ``native`` (the C chunk driver, which owns the
    arena of a :class:`~repro.core.batch.BatchExpander`), ``fused`` and
    ``reference`` (no expander).  ``params.engine`` names the tier a
    solve starts at (array: native, object: fused, reference:
    reference).  Each refusal in the one list below rules out the tiers
    it names; the fastest tier left runs.  ``fallback`` is the first
    refusal, in list order, of the engine's first tier.  The native gate
    (:func:`~repro.core.batch.make_batch_expander`) and the kernel load
    run only while native is still open, so a solve that cannot use the
    driver never builds or loads it, nor imports numpy.
    """
    tiers = _TIERS[ENGINES.index(params.engine):]
    rb = params.resources
    refusals = [
        (reason, struck)
        for applies, reason, struck in (
            (dispatcher is not None, "dispatcher", ("native",)),
            (hot_sink is not None, "trace sink attached", ("native",)),
            (profiled, "profiler attached", ("native",)),
            (early_stop is not None, "early-stop target", ("native",)),
            (not math.isinf(rb.max_children), "MAXSZDB cap", ("native",)),
            (not math.isinf(rb.max_active), "MAXSZAS cap", ("native",)),
            (problem.uniform_delay is None, "non-uniform interconnect",
             ("native",)),
            (type(frontier) not in _NATIVE_FRONTIER_KINDS,
             f"{type(frontier).__name__} selection not in the kernel",
             ("native",)),
            (not prepared.fused_compatible,
             f"branching {params.branching.name} has no fused form",
             ("fused",)),
            (root_closed, "root closed by the initial upper bound",
             ("native",)),
        )
        if applies
    ]

    def is_open(tier: str) -> bool:
        return tier in tiers and all(tier not in s for _, s in refusals)

    expander_args = (
        problem, prepared, params.lower_bound, params.characteristic,
        dominance, params.elimination, params.break_symmetry,
    )
    batch = None
    if is_open("native"):
        # numpy, the arena and the kernel load here, once a solve may
        # still use the driver, and never for one that cannot.
        from . import _native
        from .batch import make_batch_expander

        batch = make_batch_expander(*expander_args)
        if isinstance(batch, str):
            refusals.append((batch, ("native",)))
        elif (error := _native.load_error()) is not None:
            refusals.append(
                (f"native kernel unavailable: {error}", ("native",))
            )
    path = next(tier for tier in tiers if is_open(tier))
    fallback = next(
        (reason for reason, struck in refusals if tiers[0] in struck), None
    )
    if path == "native":
        return path, batch, fallback
    if path == "fused":
        return path, FusedExpander(*expander_args), fallback
    return path, None, fallback


@dataclass(slots=True)
class _Search:
    """Where one solve's search stands, as snapshots and announcements see it.

    The Python loop keeps these in locals and writes them back before a
    boundary, an announcement and its exit.
    """

    seq: int
    threshold: float
    incumbent_cost: float
    #: Cost of the schedule behind ``best_proc``/``best_start``: above
    #: ``incumbent_cost`` only after a polled external bound.
    found_cost: float
    best_proc: tuple[int, ...] | None
    best_start: tuple[float, ...] | None
    incumbent_source: str


def _seed_incumbent(params, problem, subtree, resume):
    """Steps 1-2: the search record and the initial upper bound."""
    if resume is not None:
        # The incumbent (and everything around it) travelled with the
        # snapshot; U already ran in the original run.
        search = _Search(
            resume.seq, 0.0, resume.incumbent_cost, resume.found_cost,
            resume.best_proc, resume.best_start, resume.incumbent_source,
        )
        initial_upper_bound = resume.initial_upper_bound
    else:
        # A sub-search's incumbent travelled with its spec: the
        # coordinator already ran the upper-bound provider.
        initial_upper_bound, solution = (
            (subtree.incumbent_cost, None) if subtree is not None
            else params.upper_bound.initial(problem)
        )
        best = (None, None) if solution is None else (
            solution.proc_of, solution.start
        )
        search = _Search(
            1, 0.0, initial_upper_bound, initial_upper_bound, *best,
            "initial-upper-bound",
        )
    search.threshold = pruning_threshold(
        search.incumbent_cost, params.inaccuracy
    )
    return search, initial_upper_bound


@dataclass(slots=True)
class _Run:
    """What a runner needs of one solve, and what it hands back."""

    params: BnBParameters
    stats: SearchStats
    search: _Search
    prepared: object
    expander: object
    frontier: object
    dominance: object
    sink: object
    hot_sink: object
    lap: object
    channel: object
    dispatcher: object
    fingerprint: str | None
    initial_upper_bound: float
    max_vertices: float
    #: The in-hand vertex at an early stop: popped, unexpanded, so still
    #: part of the open search (snapshots and the open lower bound must
    #: include it).
    pending_vertex: Vertex | None = None
    target_reached: bool = False

    def snapshot(self, view, in_hand) -> SearchCheckpoint:
        """The search as it stands, ``in_hand`` first."""
        stats = self.stats
        search = self.search
        counters = stats.as_dict()
        counters["elapsed"] = stats.time_since_start()
        entries = view.export()
        if in_hand is not None:
            entries.insert(0, in_hand)
        return SearchCheckpoint(
            fingerprint=self.fingerprint,
            frontier=[(v.state, v.lower_bound, v.seq) for v in entries],
            seq=search.seq,
            incumbent_cost=search.incumbent_cost,
            found_cost=search.found_cost,
            best_proc=search.best_proc,
            best_start=search.best_start,
            incumbent_source=search.incumbent_source,
            initial_upper_bound=self.initial_upper_bound,
            stats=counters,
            tt=tt_totals(stats, self.dominance.telemetry()),
        )

    def announce(self) -> None:
        """Tell everyone listening about one incumbent improvement."""
        cost = self.search.incumbent_cost
        if self.channel is not None:
            self.channel.publish(cost)
        trace_incumbent(self.sink, cost, self.stats)


def trace_incumbent(sink, cost: float, stats: SearchStats) -> None:
    """Trace one accepted improvement with the solve's counts and clock so far."""
    if sink is not None and sink.accepts("incumbent"):
        sink.emit(
            "incumbent",
            {
                "generated": stats.generated,
                "explored": stats.explored,
                "cost": _json_num(cost),
                "elapsed": round(stats.time_since_start(), 6),
            },
        )


def tt_totals(stats: SearchStats, telemetry) -> dict[str, int]:
    """The table's counters so far: those on ``stats`` plus the live table's.

    A resumed solve's fresh table adds its events to the snapshot's;
    ``tt_filled`` and ``tt_capacity`` describe the live table alone.
    """
    tel = telemetry or {}
    totals = {key: getattr(stats, key) + tel.get(key, 0) for key in TT_COUNTERS}
    totals["tt_filled"] = tel.get("tt_filled", 0)
    totals["tt_capacity"] = tel.get("tt_capacity", 0)
    return totals


def announce_resume(
    sink, metrics, snapshot: SearchCheckpoint, stats: SearchStats,
    open_count: int, incumbent: float,
) -> None:
    """Trace and count a solve resumed with ``open_count`` open entries."""
    if sink is not None and sink.accepts("resume"):
        sink.emit(
            "resume",
            {
                "version": snapshot.version,
                "frontier": open_count,
                "generated": stats.generated,
                "explored": stats.explored,
                "incumbent": _json_num(incumbent),
            },
        )
    if metrics is not None:
        metrics.counter(
            "bnb_checkpoint_loaded_total", "Search snapshots resumed from"
        ).inc()


def _seed_frontier(run: _Run, problem, subtree, resume, metrics, root) -> None:
    """Fill the empty active set: the snapshot's, a subtree root or the root.

    ``root`` is the fresh solve's root vertex, already bounded by ``L``.
    """
    expander = run.expander
    stats = run.stats
    if resume is not None:
        # States are re-bound to the live problem object (unpickling gave
        # them an equal but distinct recompilation); vertices are rebuilt
        # without the fused path's incremental vectors, which the
        # expander recomputes identically.
        restored = []
        for rs, rlb, rseq in resume.frontier:
            rs.problem = problem
            restored.append(Vertex(rs, rlb, rseq))
        run.frontier.restore(restored)
        stats.peak_active = max(stats.peak_active, len(restored))
        announce_resume(
            run.sink, metrics, resume, stats, len(restored),
            run.search.incumbent_cost,
        )
        return
    if subtree is not None:
        # The root was generated (and counted) by the coordinator, so
        # the local generated counter starts at zero and the local
        # MAXVERT allowance is the coordinator's remaining budget.
        if subtree.max_generated < run.max_vertices:
            run.max_vertices = subtree.max_generated
        if expander is not None:
            root = expander.root_from(subtree.state, subtree.lower_bound)
        else:
            root = Vertex(subtree.state, subtree.lower_bound, 0)
        stats.generated = 0
    else:
        if expander is not None:
            root = expander.root()
        stats.generated = 1
    if not run.params.elimination.should_prune(
        root.lower_bound, run.search.threshold
    ):
        run.frontier.push(root)
        stats.peak_active = 1


def _per_vertex_sink(obs):
    """The user's sink, unless it rejects every sampled kind statically.

    A sink whose rejection no per-event state backs (a TraceRecorder)
    needs no per-vertex check, so the fused and native tiers stay
    available; composites do not set the flag.
    """
    sink = obs.sink if obs is not None else None
    return None if getattr(sink, "rejects_sampled_kinds", False) else sink


def _lap_timer(profiler):
    """``lap(phase)`` books the time since the last lap to ``phase``."""
    if profiler is None:
        return None
    _pc = time.perf_counter
    ptot = profiler.totals
    pcnt = profiler.counts
    mark = _pc()

    def lap(phase: str, _pc=_pc) -> None:
        # Contiguous timestamps: each span ends where the next begins,
        # so phase totals tile the wall clock.
        nonlocal mark
        now = _pc()
        ptot[phase] = ptot.get(phase, 0.0) + (now - mark)
        pcnt[phase] = pcnt.get(phase, 0) + 1
        mark = now

    return lap


def _drain_driver(driver, stats: SearchStats, search: _Search) -> None:
    """Pull the driver's search state into the stats and the record."""
    driver.sync_stats(stats)
    search.seq = driver.seq
    search.threshold = driver.threshold
    search.incumbent_cost = driver.incumbent
    if driver.best_found:
        search.found_cost = driver.found_cost
        search.best_proc, search.best_start = driver.best_schedule()
        search.incumbent_source = "search"


def _run_native(run: _Run, boundary: Boundary):
    """The native tier: the C chunk driver runs Steps 3-10; the stop kind.

    The seeded vertices move into the driver's arena and frontier, which
    replaces the run's.  The driver returns at chunk boundaries, reported
    improvements, growth points, the MAXVERT cap and branching errors;
    all else is bit-identical to :func:`_run_loop`.
    """
    from . import _native
    from .arena import ArenaState

    params = run.params
    stats = run.stats
    search = run.search
    expander = run.expander
    entries = []
    for v in run.frontier.export():
        st = v.state
        if type(st) is not ArenaState or st.arena is not expander.arena:
            st = expander._ensure_row(v)
        st.disown()
        entries.append((v.lower_bound, v.seq, st.slot, st.level))
    driver = _native.NativeDriver(
        expander.arena,
        expander.ap,
        frontier_kind=_NATIVE_FRONTIER_KINDS[type(run.frontier)],
        bound_kind=expander.bound_kind,
        child_order=_CHILD_ORDER_CODES[params.child_order],
        elim_none=type(params.elimination) is NoElimination,
        stop_on_bound=params.selection.stop_on_bound,
        break_symmetry=params.break_symmetry,
        fixed_order=getattr(run.prepared, "order", None),
        entries=entries,
        seq=search.seq,
        threshold=search.threshold,
        incumbent=search.incumbent_cost,
        found_cost=search.found_cost,
        inaccuracy=params.inaccuracy,
        max_vertices=run.max_vertices,
        stats=stats,
        report_incumbent=run.channel is not None or (
            run.sink is not None and run.sink.accepts("incumbent")
        ),
    )
    frontier = run.frontier = driver.frontier
    stop_kind = None
    announced = stats.incumbent_updates
    driver.retarget(
        boundary.check_at, search.incumbent_cost, search.threshold,
        stats.pruned_active,
    )
    while True:
        code = driver.step()
        if code == _native.ST_GROW_ARENA or code == _native.ST_GROW_FRONT:
            driver.grow(code)
        elif code == _native.ST_CHECK:
            _drain_driver(driver, stats, search)
            stop_kind = boundary.service(
                frontier, driver.pending_vertex(),
                search.incumbent_cost, search.threshold,
            )
            if stop_kind is not None:
                run.pending_vertex = driver.take_pending()
                break
            driver.retarget(
                boundary.check_at, boundary.incumbent,
                boundary.threshold, stats.pruned_active,
            )
        elif code == _native.ST_INCUMBENT:
            _drain_driver(driver, stats, search)
            announced = stats.incumbent_updates
            run.announce()
        else:
            break
    _drain_driver(driver, stats, search)
    if stats.incumbent_updates != announced:
        run.announce()
    if code == _native.ST_MAXVERT:
        return "MAXVERT"
    if code == _native.ST_ERR_NOT_READY:
        # Replay the branching call on the offending vertex so the
        # identical ConfigurationError surfaces.
        run.prepared.branch_tasks(ArenaState(expander.arena, driver.err_slot()))
        raise ConfigurationError(
            "native driver flagged an unready fixed-order task"
        )
    # ST_DONE / ST_BOUNDSTOP: search complete.
    return stop_kind


def _expand_reference(
    vertex, seq, prepared, bound, charf, dominance, break_symmetry, lap
):
    """The reference tier's Steps 6-7: one child at a time.

    Returns :meth:`~repro.core.expand.FusedExpander.expand`'s tally
    tuple (nothing is pre-checked, so its ``skipped`` is 0); the loop
    books and traces both tiers' tallies in one place.  A profiler sees
    each child's branch, bound, filter and dominance spans.
    """
    children = []
    n_gen = n_goals = n_infeasible = n_dominated = 0
    best_goal_cost = math.inf
    best_goal_state = None
    placements = prepared.placements(vertex.state, break_symmetry)
    if lap is not None:
        lap("branch")
    for task, proc in placements:
        child_state = vertex.state.child(task, proc)
        n_gen += 1
        if lap is not None:
            lap("branch")
        child_lb = bound.evaluate(child_state)
        # States may carry their own floor (the allocation-load bound of
        # AO states; -inf class default everywhere else).
        floor = child_state.lb_floor
        if floor > child_lb:
            child_lb = floor
        if lap is not None:
            lap("bound")
        if child_state.is_goal:
            # Goal vertices never enter the active set: track the
            # cheapest one in DB (Figure 2, steps 1-5).
            n_goals += 1
            if child_lb < best_goal_cost:
                best_goal_cost = child_lb
                best_goal_state = child_state
            if lap is not None:
                lap("goal-eval")
            continue
        admitted = charf.admits(child_state, child_lb)
        if lap is not None:
            lap("filter")
        if not admitted:
            n_infeasible += 1
            continue
        dominated = dominance.is_dominated(child_state)
        if lap is not None:
            lap("dominance")
        if dominated:
            n_dominated += 1
            continue
        children.append(Vertex(child_state, child_lb, seq))
        seq += 1
    return (
        seq, children, n_gen, n_goals, 0, n_infeasible, n_dominated,
        best_goal_cost, best_goal_state,
    )


def _run_loop(run: _Run, boundary: Boundary):
    """The fused and reference tiers: Steps 3-10; the stop kind.

    An expander branches and bounds a vertex's children in one call; the
    reference tier does it child by child (:func:`_expand_reference`).
    Both return per-vertex tallies, so the counters and the trace are
    booked once, in one schema, and the rest of the loop is shared.
    """
    params = run.params
    stats = run.stats
    search = run.search
    frontier = run.frontier
    expander = run.expander
    prepared = run.prepared
    dominance = run.dominance
    hot_sink = run.hot_sink
    lap = run.lap
    dispatcher = run.dispatcher
    max_vertices = run.max_vertices
    rb = params.resources
    bound = params.lower_bound
    elim = params.elimination
    charf = params.characteristic
    stop_on_bound = params.selection.stop_on_bound
    child_order = params.child_order
    break_symmetry = params.break_symmetry
    fused_precheck = expander is not None and expander.precheck
    # U/DBAS's test is a bare comparison; inlining it in the pop loop
    # saves a method call per explored vertex.
    fast_udbas = type(elim) is UDBASElimination
    should_prune = elim.should_prune
    max_children = rb.max_children
    max_active = rb.max_active
    check_at = boundary.check_at
    seq = search.seq
    threshold = search.threshold
    incumbent_cost = search.incumbent_cost
    # The checker's duplicate verdicts booked so far: its prunes count
    # as pruned_duplicate up to its running total.
    dup_seen = 0
    stop_kind = None
    while True:
        vertex = frontier.pop()
        if vertex is None:
            if lap is not None:
                lap("select")
            break

        # Step 5: stop condition for S.  Under best-first selection a
        # popped vertex at/above the threshold ends the whole search;
        # under LIFO/FIFO it is merely skipped (it was pushed before the
        # incumbent improved).
        if (
            (vertex.lower_bound >= threshold)
            if fast_udbas
            else should_prune(vertex.lower_bound, threshold)
        ):
            if stop_on_bound:
                if lap is not None:
                    lap("select")
                break
            stats.pruned_active += 1
            if hot_sink is not None and hot_sink.accepts("prune"):
                hot_sink.emit(
                    "prune",
                    {"cause": "stale-active",
                     "lb": vertex.lower_bound,
                     "level": vertex.level},
                )
            if lap is not None:
                lap("select")
            continue

        # Chunk boundary: the vertex is in hand but untouched, so a stop
        # leaves it pending (snapshots and the open lower bound still
        # count it as part of the open search).
        if stats.explored >= check_at:
            search.seq = seq
            search.threshold = threshold
            search.incumbent_cost = incumbent_cost
            stop_kind = boundary.service(
                frontier, vertex, incumbent_cost, threshold
            )
            if lap is not None:
                lap("telemetry")
            if stop_kind is not None:
                run.pending_vertex = vertex
                break
            incumbent_cost = boundary.incumbent
            threshold = boundary.threshold
            check_at = boundary.check_at

        if dispatcher is not None and vertex.level >= dispatcher.depth:
            # A shard root: record it, leave it unexplored.
            dispatcher.record(vertex)
            if lap is not None:
                lap("select")
            continue

        stats.explored += 1
        if lap is not None:
            lap("select")

        if hot_sink is not None:
            if hot_sink.accepts("explore"):
                hot_sink.emit(
                    "explore",
                    {
                        "step": stats.explored,
                        "generated": stats.generated,
                        "level": vertex.level,
                        "lb": vertex.lower_bound,
                        "active": len(frontier),
                    },
                )
            if lap is not None:
                lap("telemetry")

        # Step 6-7: branch and bound the children, tallied per vertex.
        # An expander does it in one pass (see repro.core.expand), whose
        # admission pre-check discards only children the elimination
        # below would prune, after consuming their sequence numbers, so
        # every counter stays identical to the reference loop's.
        if expander is not None:
            tallies = expander.expand(vertex, threshold, seq)
            if lap is not None:
                lap("expand")
        else:
            tallies = _expand_reference(
                vertex, seq, prepared, bound, charf, dominance,
                break_symmetry, lap,
            )
        (
            seq, children, n_gen, n_goals, n_bound, n_infeasible,
            n_dominated, best_goal_cost, best_goal_state,
        ) = tallies
        stats.generated += n_gen
        stats.goals_evaluated += n_goals
        stats.pruned_infeasible += n_infeasible
        if n_dominated:
            # The checker's running duplicate total splits its verdicts.
            n_dup = dominance.duplicate_pruned - dup_seen
            dup_seen += n_dup
            n_dominated -= n_dup
            stats.pruned_duplicate += n_dup
            stats.pruned_dominated += n_dominated
        else:
            n_dup = 0
        if hot_sink is not None:
            if n_goals and hot_sink.accepts("goal"):
                hot_sink.emit(
                    "goal",
                    {"generated": stats.generated,
                     "count": n_goals,
                     "cost": _json_num(best_goal_cost)},
                )
            for cause, count in (
                ("infeasible", n_infeasible),
                ("dominated", n_dominated),
                ("duplicate", n_dup),
            ):
                if count and hot_sink.accepts("prune"):
                    hot_sink.emit(
                        "prune",
                        {"cause": cause, "count": count,
                         "level": vertex.level + 1},
                    )
            if lap is not None:
                lap("telemetry")

        # Figure 2 steps 1-5: incumbent update from the cheapest goal.
        threshold_tightened = False
        if best_goal_state is not None and best_goal_cost < incumbent_cost:
            threshold_tightened = True
            incumbent_cost = best_goal_cost
            search.incumbent_cost = best_goal_cost
            search.found_cost = best_goal_cost
            search.best_proc = best_goal_state.proc_of
            search.best_start = best_goal_state.start
            search.incumbent_source = "search"
            stats.incumbent_updates += 1
            run.announce()
            threshold = pruning_threshold(incumbent_cost, params.inaccuracy)
            # Figure 2 step 6, AS half: sweep the active set.
            if elim.prunes_active_set():
                swept = frontier.prune_above(threshold)
                stats.pruned_active += swept
                if (
                    hot_sink is not None
                    and swept
                    and hot_sink.accepts("prune")
                ):
                    hot_sink.emit(
                        "prune",
                        {"cause": "active-sweep", "count": swept},
                    )
            early_stop = charf.early_stop_cost
            if early_stop is not None and incumbent_cost <= early_stop:
                run.target_reached = True
                if lap is not None:
                    lap("goal-eval")
                break
        if lap is not None:
            lap("goal-eval")

        # Figure 2 step 6, DB half: eliminate children.  The expander's
        # pre-checked children (``n_bound``) are exactly the ones this
        # stage would have pruned (their bounds met the threshold before
        # it could only have tightened), so they count here.
        if fused_precheck and not threshold_tightened:
            # Pre-checked children are already strictly below this very
            # threshold; re-testing each one cannot prune anything
            # unless a goal just tightened it.
            kept = children
        else:
            kept = [
                child for child in children
                if not should_prune(child.lower_bound, threshold)
            ]
            n_bound += len(children) - len(kept)
        if n_bound:
            stats.pruned_children += n_bound
            if hot_sink is not None and hot_sink.accepts("prune"):
                hot_sink.emit(
                    "prune",
                    {"cause": "bound", "count": n_bound,
                     "level": vertex.level + 1},
                )

        # RB: MAXSZDB caps the child set (keep the best bounds).
        if len(kept) > max_children:
            kept.sort(key=_BY_BOUND)
            dropped_db = len(kept) - int(rb.max_children)
            stats.dropped_resource += dropped_db
            stats.truncated = True
            del kept[int(rb.max_children):]
            if run.sink is not None and run.sink.accepts("resource"):
                run.sink.emit(
                    "resource", {"kind": "MAXSZDB", "dropped": dropped_db}
                )

        # Step 9: move the survivors into AS.
        if child_order == "best-last":
            # Stable descending sort: equal bounds keep insertion order,
            # matching the negated-key sort.
            kept.sort(key=_BY_BOUND, reverse=True)
        elif child_order == "best-first":
            kept.sort(key=_BY_BOUND)
        for child in kept:
            frontier.push(child)

        active = len(frontier)
        if active > stats.peak_active:
            stats.peak_active = active

        # RB: MAXSZAS disposes of the worst active vertices.
        if active > max_active:
            dropped = frontier.drop_worst(active - int(rb.max_active))
            stats.dropped_resource += dropped
            stats.truncated = True
            if run.sink is not None and run.sink.accepts("resource"):
                run.sink.emit(
                    "resource", {"kind": "MAXSZAS", "dropped": dropped}
                )

        # RB extension: generated-vertex cap.
        if stats.generated >= max_vertices:
            stop_kind = "MAXVERT"
            if lap is not None:
                lap("eliminate")
            break
        if lap is not None:
            lap("eliminate")
    search.seq = seq
    search.threshold = threshold
    search.incumbent_cost = incumbent_cost
    return stop_kind


def anytime_wrap_up(boundary: Boundary, frontier, in_hand=None):
    """``(open_lower_bound, checkpoint_path)`` of a finished solve.

    After an early stop the best open bound (``frontier`` plus the
    in-hand vertex) bounds the optimum unless MAXSZAS/MAXSZDB dropped
    vertices, and a final snapshot always leaves a resumable file.  The
    engine and the cluster coordinator both end a solve here.
    """
    stats = boundary.stats
    open_lower_bound = None
    if stats.stopped_early and stats.dropped_resource == 0:
        open_lower_bound = frontier.min_bound()
        if in_hand is not None and (
            open_lower_bound is None or in_hand.lower_bound < open_lower_bound
        ):
            open_lower_bound = in_hand.lower_bound
    checkpoint = boundary.checkpoint
    checkpoint_path = None
    if checkpoint is not None:
        if stats.stopped_early:
            checkpoint_path = boundary.write_checkpoint(
                frontier, in_hand, final=True
            )
        elif checkpoint.writes:
            checkpoint_path = checkpoint.path
    return open_lower_bound, checkpoint_path


class BranchAndBound:
    """Reusable solver bound to one parametrization.

    Pass an :class:`~repro.obs.Observability` bundle for event sinks
    (a :class:`~repro.core.trace.TraceRecorder` for the anytime
    profile, a :class:`~repro.obs.JsonlSink` for a streamed trace),
    phase profiling, metrics and progress heartbeats; it is off by
    default and costs nothing when off.

    ``params.engine`` names the tier a solve starts at, and
    :func:`choose_tier` runs the fastest tier from there that the solve
    allows; a per-vertex sink or a profiler rules out only the native
    driver.  Every tier produces identical results, statistics and
    traces (``tests/test_core_expand.py``, ``tests/test_core_trace.py``).
    """

    def __init__(
        self,
        params: BnBParameters | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.params = params or BnBParameters()
        self.obs = obs

    # ------------------------------------------------------------------

    def solve_graph(self, graph: TaskGraph, platform: Platform) -> BnBResult:
        """Compile and solve a (graph, platform) pair."""
        return self.solve(compile_problem(graph, platform))

    def solve(
        self,
        problem: CompiledProblem,
        *,
        subtree: SubtreeSpec | None = None,
        dispatcher: FrontierCollector | None = None,
        bound_channel=None,
        checkpoint: Checkpointer | None = None,
        resume: SearchCheckpoint | None = None,
        stop: StopToken | None = None,
    ) -> BnBResult:
        """Run the Figure 1 loop on a compiled problem.

        The keyword hooks drive the parallel decomposition in
        :mod:`repro.cluster` and default to off (the sequential
        loop is unchanged when they are ``None``):

        * ``subtree`` — resume from a mid-tree state instead of the
          empty schedule (see :class:`SubtreeSpec`); used by worker
          processes.
        * ``dispatcher`` — a
          :class:`~repro.core.shards.FrontierCollector`: vertices at
          its ``depth`` or deeper are recorded as shard roots instead
          of expanded, so the loop is a shallow pass; used by the
          cluster coordinator.
        * ``bound_channel`` — an object with ``poll(explored) -> float``
          and ``publish(cost)``: the incumbent is published on every
          improvement and polled at every chunk boundary (``explored``
          is the search's explored count there), so concurrent
          searches share pruning power.  An externally
          polled bound tightens the threshold but never becomes the
          returned schedule (the worker that published it owns that).

        The fault-tolerance hooks (see :mod:`repro.core.checkpoint`)
        likewise default to off:

        * ``checkpoint`` — a :class:`~repro.core.checkpoint.Checkpointer`
          that periodically snapshots the search (and always writes a
          final snapshot on an early stop).
        * ``resume`` — a loaded
          :class:`~repro.core.checkpoint.SearchCheckpoint` to continue
          from; its fingerprint must match this ⟨problem, parameters⟩
          pair.
        * ``stop`` — a :class:`~repro.core.checkpoint.StopToken`; when
          set (e.g. by a signal handler), the loop stops at the next
          chunk boundary and returns an ``INTERRUPTED`` anytime result.
        """
        params = self.params
        if (checkpoint is not None or resume is not None) and (
            subtree is not None or dispatcher is not None
        ):
            raise ConfigurationError(
                "checkpoint/resume cannot be combined with the parallel "
                "decomposition hooks (subtree/dispatcher) — checkpoint "
                "the coordinating run instead"
            )
        fingerprint = None
        if resume is not None or checkpoint is not None:
            fingerprint = problem_fingerprint(problem, params)
        if resume is not None:
            resume.require_match(fingerprint)
            if checkpoint is not None:
                checkpoint.resume_from(resume)
        # A snapshot keeps the table's counters apart from the rest.
        stats = SearchStats() if resume is None else SearchStats.from_dict(
            resume.stats | (resume.tt or {})
        )

        obs = self.obs
        sink = obs.event_sink() if obs is not None else None
        hot_sink = _per_vertex_sink(obs)
        profiler = obs.profiler if obs is not None else None
        metrics = obs.metrics if obs is not None else None
        live = obs.live if obs is not None else None
        lap = _lap_timer(profiler)

        stats.start_clock()
        try:
            search, initial_upper_bound = _seed_incumbent(
                params, problem, subtree, resume
            )
            announce_start(obs, problem, params, search.incumbent_cost)
            prepared = params.branching.prepare(problem)
            dominance = params.dominance.fresh()
            # Only the run holds the seeded frontier: the native runner
            # replaces it with the driver's and so frees its vertices.
            run = _Run(
                params, stats, search, prepared, None,
                params.selection.make_frontier(), dominance, sink, hot_sink,
                lap, bound_channel, dispatcher, fingerprint,
                initial_upper_bound, params.resources.max_vertices,
            )
            # A fresh root that the initial U already prunes ends the
            # solve at seeding: no tier needs the kernel for that.
            root = None
            root_closed = False
            if resume is None and subtree is None:
                rs = prepared.make_root()
                root = Vertex(rs, params.lower_bound.evaluate(rs), 0)
                root_closed = params.elimination.should_prune(
                    root.lower_bound, search.threshold
                )
            path, run.expander, fallback = choose_tier(
                params, problem, prepared, run.frontier,
                dominance, hot_sink=hot_sink, profiled=profiler is not None,
                dispatcher=dispatcher,
                early_stop=params.characteristic.early_stop_cost,
                root_closed=root_closed,
            )
            _seed_frontier(run, problem, subtree, resume, metrics, root)
            stats.engine_path = path
            stats.engine_fallback = fallback
            if live is not None:
                live.bus.update(engine_path=path, engine_fallback=fallback)
            # The boundary holds the run's snapshot hook, so the run must
            # not hold the boundary: a cycle would keep the arena alive.
            boundary = Boundary(
                stats=stats,
                rb=params.resources,
                cadence=_DRIVER_CADENCE if path == "native" else _LOOP_CADENCE,
                inaccuracy=params.inaccuracy,
                prunes_active=params.elimination.prunes_active_set(),
                stop=stop,
                checkpoint=checkpoint,
                snapshot=run.snapshot,
                channel=bound_channel,
                live=live,
                progress=obs.progress if obs is not None else None,
                metrics=metrics,
                sink=sink,
                stop_on_bound=params.selection.stop_on_bound,
                dominance=dominance,
            )
            if lap is not None:
                lap("setup")
            runner = _run_native if path == "native" else _run_loop
            stop_kind = runner(run, boundary)
            if stop_kind == "MAXVERT":
                boundary.stopped("MAXVERT", f"{stats.generated} generated")
                stats.truncated = True
        finally:
            # Always populate stats.elapsed, even when the search raises
            # mid-solve (stop_clock is idempotent).
            stats.stop_clock()

        found = search.best_proc is not None
        status = self._status(params, stats, run.target_reached, found)
        open_lower_bound, checkpoint_path = anytime_wrap_up(
            boundary, run.frontier, run.pending_vertex
        )

        # The transposition table's counters ride the result.
        telemetry = dominance.telemetry()
        if telemetry:
            for key, value in tt_totals(stats, telemetry).items():
                setattr(stats, key, value)

        if lap is not None:
            lap("finalize")
        result = BnBResult(
            problem=problem,
            params=params,
            status=status,
            best_cost=search.found_cost if found else math.inf,
            proc_of=search.best_proc,
            start=search.best_start,
            incumbent_source=search.incumbent_source,
            initial_upper_bound=initial_upper_bound,
            stats=stats,
            profile=profiler.freeze() if profiler is not None else None,
            open_lower_bound=open_lower_bound,
            checkpoint_path=checkpoint_path,
        )
        publish(result, obs, active=len(run.frontier))
        return result

    @staticmethod
    def _status(
        params: BnBParameters,
        stats: SearchStats,
        target_reached: bool,
        found: bool,
    ) -> SolveStatus:
        if not found:
            return SolveStatus.FAILED
        if stats.interrupted:
            return SolveStatus.INTERRUPTED
        if stats.time_limit_hit:
            return SolveStatus.TIMEOUT
        if stats.memory_limit_hit:
            return SolveStatus.MEMORY
        if stats.truncated:
            return SolveStatus.TRUNCATED
        if target_reached:
            return SolveStatus.TARGET_REACHED
        if not params.branching.guarantees_optimal:
            return SolveStatus.APPROXIMATE
        if params.inaccuracy > 0:
            return SolveStatus.NEAR_OPTIMAL
        return SolveStatus.OPTIMAL


def solve(
    graph: TaskGraph,
    platform: Platform,
    params: BnBParameters | None = None,
) -> BnBResult:
    """One-shot convenience wrapper: compile and solve."""
    return BranchAndBound(params).solve_graph(graph, platform)
