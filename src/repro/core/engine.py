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

Observability
-------------
The loop exposes hook points for the :mod:`repro.obs` subsystem via an
:class:`~repro.obs.Observability` bundle: a structured event sink
(start/explore/incumbent/goal/prune/resource/summary), a per-phase
profiler, a metrics registry and a progress heartbeat.  Every hook is
guarded by an ``is not None`` check on a local, so a solve with
observability off runs the same loop it always did.  Everything
periodic — stop token, limits, checkpoints, bound-channel polls, live
samples, heartbeats — rides one :class:`~repro.core.boundary.Boundary`,
which the native chunk driver calls too.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

from ..errors import (
    CheckpointError,
    ConfigurationError,
    ResourceLimitExceeded,
)
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
from . import _native
from .arena import ArenaState
from .boundary import Boundary
from .elimination import NoElimination, UDBASElimination, pruning_threshold
from .expand import BatchExpander, FusedExpander, make_batch_expander
from .params import BnBParameters
from .selection import (
    _DepthLLBFrontier,
    _FIFOFrontier,
    _LIFOFrontier,
    _LLBFrontier,
)
from .stats import SearchStats
from .trace import TraceRecorder
from .vertex import Vertex

__all__ = [
    "SolveStatus",
    "BnBResult",
    "BranchAndBound",
    "SubtreeSpec",
    "SubtreeDispatcher",
    "solve",
]

#: Explored vertices between two boundaries of the Python loop.  The
#: stop token, limits, bound-channel poll and samplers all ride this one
#: cadence (a checkpoint due earlier pulls the boundary forward).
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


class SubtreeDispatcher:
    """Hook for delegating deep subtrees to external workers.

    When attached to :meth:`BranchAndBound.solve`, every popped vertex
    at ``depth`` or deeper is *resolved* through the dispatcher instead
    of being expanded inline: the dispatcher returns the finished
    sub-search's :class:`BnBResult` (typically produced by a worker
    process running :class:`SubtreeSpec` above) and the engine merges
    its statistics and incumbent as if it had explored the subtree
    itself.  ``offer`` lets the dispatcher start working on a subtree
    speculatively the moment its root is pushed; ``notify_incumbent``
    tells it the incumbent improved, so in-flight speculation based on a
    stale bound can be restarted.  The base class is a no-op scaffold —
    see :mod:`repro.core.parallel` for the real implementations.
    """

    #: Vertices at this level or deeper are dispatched, not expanded.
    depth: int = 1

    def offer(
        self, vertex: Vertex, incumbent_cost: float, budget: float
    ) -> None:
        """A future shard was just pushed; speculation may begin."""

    def notify_incumbent(self, cost: float) -> None:
        """The coordinator's incumbent improved to ``cost``."""

    def resolve(
        self, vertex: Vertex, incumbent_cost: float, budget: float
    ) -> BnBResult:
        """Return the completed sub-search rooted at ``vertex``.

        ``incumbent_cost`` is the incumbent at the moment the vertex was
        popped and ``budget`` the remaining generated-vertex allowance —
        together they pin down the sub-search a sequential run would
        have performed, so implementations can check speculative results
        against them and re-run only on a mismatch.
        """
        raise NotImplementedError


def _final_metrics(
    metrics: MetricsRegistry, stats: SearchStats, incumbent_cost: float
) -> None:
    """Fold one run's :class:`SearchStats` into the standard counters.

    Counters accumulate across solves sharing a registry (Prometheus
    counter semantics); gauges reflect the most recent run.
    """
    c = metrics.counter
    c("bnb_generated_vertices_total",
      "Vertices created by branching (the paper's cost measure)",
      ).inc(stats.generated)
    c("bnb_explored_vertices_total",
      "Vertices selected from the active set and branched").inc(stats.explored)
    c("bnb_pruned_children_total",
      "Children discarded by the elimination rule E").inc(stats.pruned_children)
    c("bnb_pruned_active_total",
      "Active vertices swept when the incumbent improved").inc(
          stats.pruned_active)
    c("bnb_pruned_dominated_total",
      "Children discarded by the dominance rule D").inc(stats.pruned_dominated)
    c("bnb_pruned_duplicate_total",
      "Children discarded as duplicate states (transposition hits)").inc(
          stats.pruned_duplicate)
    c("bnb_pruned_infeasible_total",
      "Children discarded by the characteristic function F").inc(
          stats.pruned_infeasible)
    c("bnb_dropped_resource_total",
      "Vertices dropped by MAXSZAS / MAXSZDB overflow").inc(
          stats.dropped_resource)
    c("bnb_goals_evaluated_total",
      "Complete schedules compared to the incumbent").inc(stats.goals_evaluated)
    c("bnb_incumbent_updates_total",
      "Times the incumbent improved").inc(stats.incumbent_updates)
    c("bnb_solves_total", "Branch-and-bound runs recorded").inc()
    g = metrics.gauge
    g("bnb_engine_path",
      "Engine tier of the last run (1 on the label naming it)").label(
          path=stats.engine_path, fallback=stats.engine_fallback or "",
      ).set(1)
    g("bnb_peak_active_set_size",
      "Largest active-set size of the last run").set(stats.peak_active)
    g("bnb_elapsed_seconds", "Wall-clock of the last run").set(stats.elapsed)
    if not math.isinf(incumbent_cost):
        g("bnb_incumbent_cost",
          "Best maximum lateness found").set(incumbent_cost)


def _tt_metrics(metrics: MetricsRegistry, tel: dict[str, int]) -> None:
    """Fold transposition-table telemetry into the metrics registry."""
    c = metrics.counter
    for key, help_text in (
        ("tt_hits", "Transposition probes answered by a stored duplicate"),
        ("tt_misses", "Transposition probes that found no duplicate"),
        ("tt_inserts", "States recorded in the transposition table"),
        ("tt_evictions", "Stored states displaced by the replacement policy"),
        ("tt_rejects", "Insertions refused by the depth-preferred policy"),
        ("tt_collisions", "Equal 64-bit signatures with differing payloads"),
    ):
        if key in tel:
            c(f"bnb_{key}_total", help_text).inc(tel[key])
    g = metrics.gauge
    if "tt_filled" in tel:
        g("bnb_tt_filled_entries",
          "Occupied transposition slots after the last run").set(
              tel["tt_filled"])
    if "tt_capacity" in tel:
        g("bnb_tt_capacity_entries",
          "Total transposition slots (memory bound / entry size)").set(
              tel["tt_capacity"])


def _object_refusal(fused, user_sink, profiler, prepared, params):
    """Why the object engine runs the reference loop (None: it is fused)."""
    if fused is False:
        return "reference loop forced (fused=False)"
    if fused is None and user_sink is not None:
        return "trace sink attached"
    if fused is None and profiler is not None:
        return "profiler attached"
    if not prepared.fused_compatible:
        return f"branching {params.branching.name} has no fused form"
    return None


def _native_refusal(
    expander, frontier, problem, rb, *, dispatcher, trace, hot_sink,
    profiled, early_stop,
):
    """Why the native driver cannot run this array-engine solve.

    None means it can.  Every hook the driver does not replicate per
    vertex is named here; everything periodic rides the boundary.
    """
    if dispatcher is not None:
        return "dispatcher"
    if trace is not None:
        return "trace recorder attached"
    if hot_sink is not None:
        return "trace sink attached"
    if profiled:
        return "profiler attached"
    if early_stop is not None:
        return "early-stop target"
    if not math.isinf(rb.max_children):
        return "MAXSZDB cap"
    if not math.isinf(rb.max_active):
        return "MAXSZAS cap"
    if problem.uniform_delay is None:
        return "non-uniform interconnect"
    if type(frontier) not in _NATIVE_FRONTIER_KINDS:
        return f"{type(frontier).__name__} selection not in the kernel"
    if type(expander) is not BatchExpander:
        return "no batch kernel for these rules"
    error = _native.load_error()
    if error is not None:
        return f"native kernel unavailable: {error}"
    return None


class BranchAndBound:
    """Reusable solver bound to one parametrization.

    Pass a :class:`~repro.core.trace.TraceRecorder` to log the search's
    explore/incumbent events (anytime convergence profile), and/or an
    :class:`~repro.obs.Observability` bundle for streamed event traces,
    phase profiling, metrics and progress heartbeats; both are off by
    default and cost nothing when off.

    ``fused`` selects the expansion path: ``True`` forces the fused
    :class:`~repro.core.expand.FusedExpander` hot path (incremental
    bounds, admission pre-check, scratch buffers), ``False`` forces the
    reference per-child loop, and ``None`` (the default) uses the fused
    path exactly when no event sink or profiler is attached — those two
    consumers observe per-child branch/bound granularity that the fused
    path folds into a single ``expand`` phase.  Both paths produce
    identical results and statistics (``tests/test_core_expand.py``).
    """

    def __init__(
        self,
        params: BnBParameters | None = None,
        trace: TraceRecorder | None = None,
        obs: Observability | None = None,
        fused: bool | None = None,
    ) -> None:
        self.params = params or BnBParameters()
        self.trace = trace
        self.obs = obs
        self.fused = fused

    # ------------------------------------------------------------------

    def solve_graph(self, graph: TaskGraph, platform: Platform) -> BnBResult:
        """Compile and solve a (graph, platform) pair."""
        return self.solve(compile_problem(graph, platform))

    def solve(
        self,
        problem: CompiledProblem,
        *,
        subtree: SubtreeSpec | None = None,
        dispatcher: SubtreeDispatcher | None = None,
        bound_channel=None,
        checkpoint: Checkpointer | None = None,
        resume: SearchCheckpoint | None = None,
        stop: StopToken | None = None,
    ) -> BnBResult:
        """Run the Figure 1 loop on a compiled problem.

        The keyword hooks drive the parallel decomposition in
        :mod:`repro.core.parallel` and default to off (the sequential
        loop is unchanged when they are ``None``):

        * ``subtree`` — resume from a mid-tree state instead of the
          empty schedule (see :class:`SubtreeSpec`); used by worker
          processes.
        * ``dispatcher`` — delegate vertices at ``dispatcher.depth`` or
          deeper to a :class:`SubtreeDispatcher`; used by the
          coordinator.
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
        if resume is not None:
            expected = problem_fingerprint(problem, params)
            if resume.fingerprint != expected:
                raise CheckpointError(
                    "checkpoint does not match this problem/parametrization "
                    f"(snapshot fingerprint {resume.fingerprint[:12]}…, "
                    f"expected {expected[:12]}…); only resource bounds RB "
                    "may differ between the checkpointing and resuming runs"
                )
            if checkpoint is not None:
                checkpoint.resume_from(resume)
        rb = params.resources
        bound = params.lower_bound
        elim = params.elimination
        charf = params.characteristic
        stats = (
            SearchStats.from_dict(resume.stats)
            if resume is not None
            else SearchStats()
        )

        # Observability components, hoisted to locals for the hot loop.
        obs = self.obs
        user_sink = obs.sink if obs is not None else None
        live = obs.live if obs is not None else None
        # The live monitor rides the event stream for low-frequency
        # kinds (its sink rejects explore/prune/goal before payloads
        # are built); the fused-path decision below deliberately keys
        # off ``user_sink`` so attaching a monitor never changes the
        # search's performance class.
        sink = user_sink if live is None else live.compose_sink(user_sink)
        # A sink that rejects every sampled kind *statically* (the live
        # monitor's — no per-event state backs the answer) is dropped
        # from the per-vertex emit checks entirely; low-frequency events
        # still go through ``sink``.  Composites wrapping a user sink do
        # not set the flag, so stateful sampling still sees every event.
        hot_sink = (
            None
            if sink is None or getattr(sink, "rejects_sampled_kinds", False)
            else sink
        )
        profiler = obs.profiler if obs is not None else None
        metrics = obs.metrics if obs is not None else None
        progress = obs.progress if obs is not None else None
        trace = self.trace
        telem = (
            trace is not None
            or hot_sink is not None
            or metrics is not None
        )

        if profiler is not None:
            _pc = time.perf_counter
            ptot = profiler.totals
            pcnt = profiler.counts
            mark = _pc()

            def lap(phase: str, _pc=_pc) -> None:
                # Contiguous timestamps: each span ends where the next
                # begins, so phase totals tile the wall clock.
                nonlocal mark
                now = _pc()
                ptot[phase] = ptot.get(phase, 0.0) + (now - mark)
                pcnt[phase] = pcnt.get(phase, 0) + 1
                mark = now
        else:
            lap = None

        channel = bound_channel
        dispatch_depth = dispatcher.depth if dispatcher is not None else 0

        stats.start_clock()
        try:
            # Step 1-2: root vertex cost from the upper bound U; the
            # initial solution (if U supplies one) is the incumbent to beat.
            if resume is not None:
                # The incumbent (and everything around it) travelled
                # with the snapshot; U already ran in the original run.
                incumbent_cost = resume.incumbent_cost
                initial_solution = None
                initial_upper_bound = resume.initial_upper_bound
                best_proc: tuple[int, ...] | None = resume.best_proc
                best_start: tuple[float, ...] | None = resume.best_start
                found_cost = resume.found_cost
                incumbent_source = resume.incumbent_source
            else:
                if subtree is not None:
                    # Sub-search: the incumbent travelled with the spec;
                    # the upper-bound provider already ran in the
                    # coordinator.
                    incumbent_cost = subtree.incumbent_cost
                    initial_solution = None
                else:
                    incumbent_cost, initial_solution = (
                        params.upper_bound.initial(problem)
                    )
                initial_upper_bound = incumbent_cost
                if initial_solution is not None:
                    best_proc = initial_solution.proc_of
                    best_start = initial_solution.start
                else:
                    best_proc = None
                    best_start = None
                # ``found_cost`` is the cost of the schedule behind
                # best_proc/best_start; it trails ``incumbent_cost`` only
                # when an externally polled bound tightened the threshold.
                found_cost = incumbent_cost
                incumbent_source = "initial-upper-bound"
            threshold = pruning_threshold(incumbent_cost, params.inaccuracy)
            if trace is not None:
                trace.on_start(incumbent_cost)
            if progress is not None:
                progress.start()
            if sink is not None and sink.accepts("start"):
                sink.emit(
                    "start",
                    {
                        "n": problem.n,
                        "m": problem.m,
                        "initial_bound": _json_num(incumbent_cost),
                        "params": params.describe(),
                    },
                )

            prepared = params.branching.prepare(problem)
            frontier = params.selection.make_frontier()
            dominance = params.dominance.fresh()
            if (
                getattr(params.branching, "duplicate_free", False)
                and not dominance.is_noop
            ):
                raise ConfigurationError(
                    f"branching rule {params.branching.name!r} generates "
                    f"each state exactly once; a dominance/duplicate "
                    f"layer (D={params.dominance.name!r}) is redundant "
                    f"and its placement-keyed stores would unsoundly "
                    f"collapse distinct allocation prefixes"
                )
            stop_on_bound = params.selection.stop_on_bound
            child_order = params.child_order
            break_symmetry = params.break_symmetry

            use_fused = self.fused
            if use_fused is None:
                use_fused = user_sink is None and profiler is None
            expander = None
            if params.engine != "object" and self.fused is not False:
                # Array engine: arena-backed batch expansion behind the
                # same expand() seam.  The factory returns None for
                # configurations it cannot replicate bit-for-bit; those
                # fall back to the scalar paths below.
                expander = make_batch_expander(
                    problem, prepared, bound, charf, dominance, elim,
                    break_symmetry,
                )
            if expander is None and use_fused and prepared.fused_compatible:
                expander = FusedExpander(
                    problem, prepared, bound, charf, dominance, elim,
                    break_symmetry,
                )

            fused_precheck = expander is not None and expander.precheck
            # U/DBAS's test is a bare comparison; inlining it in the pop
            # loop saves a method call per explored vertex.
            fast_udbas = type(elim) is UDBASElimination
            should_prune = elim.should_prune
            max_children = rb.max_children
            max_active = rb.max_active
            max_vertices = rb.max_vertices

            if resume is not None:
                # Refill the active set from the snapshot.  States are
                # re-bound to the live problem object (unpickling gave
                # them an equal but distinct recompilation); vertices
                # are rebuilt without the fused path's incremental
                # vectors, which the expander recomputes identically.
                restored = []
                for rs, rlb, rseq in resume.frontier:
                    rs.problem = problem
                    restored.append(Vertex(rs, rlb, rseq))
                frontier.restore(restored)
                seq = resume.seq
                if len(restored) > stats.peak_active:
                    stats.peak_active = len(restored)
                if sink is not None and sink.accepts("resume"):
                    sink.emit(
                        "resume",
                        {
                            "version": resume.version,
                            "frontier": len(restored),
                            "generated": stats.generated,
                            "explored": stats.explored,
                            "incumbent": _json_num(incumbent_cost),
                        },
                    )
                if metrics is not None:
                    metrics.counter(
                        "bnb_checkpoint_loaded_total",
                        "Search snapshots resumed from",
                    ).inc()
            elif subtree is not None:
                # Resume mid-tree.  The root was generated (and counted)
                # by the coordinator, so the local generated counter
                # starts at zero and the local MAXVERT allowance is the
                # coordinator's remaining budget.
                if subtree.max_generated < max_vertices:
                    max_vertices = subtree.max_generated
                rs = subtree.state
                if expander is not None:
                    root = expander.root_from(rs, subtree.lower_bound)
                else:
                    root = Vertex(rs, subtree.lower_bound, 0)
                stats.generated = 0
                seq = 1
                if not elim.should_prune(root.lower_bound, threshold):
                    frontier.push(root)
                    stats.peak_active = 1
            else:
                if expander is not None:
                    root = expander.root()
                else:
                    rs = prepared.make_root()
                    root = Vertex(rs, bound.evaluate(rs), 0)
                stats.generated = 1
                seq = 1
                if not elim.should_prune(root.lower_bound, threshold):
                    frontier.push(root)
                    stats.peak_active = 1

            target_reached = False
            early_stop = charf.early_stop_cost
            fingerprint = None
            if checkpoint is not None:
                fingerprint = (
                    resume.fingerprint
                    if resume is not None
                    else problem_fingerprint(problem, params)
                )
            #: The in-hand vertex at an early stop: popped, unexpanded,
            #: so still part of the open search (snapshots and the open
            #: lower bound must include it).
            pending_vertex = None
            #: Why the loop ended early: a boundary's stop kind or MAXVERT.
            stop_kind = None

            # Array engine, native tier: hand the whole pop→expand→push
            # loop to the compiled chunk driver unless the configuration
            # has a per-vertex hook it cannot replicate.
            driver = None
            if params.engine == "object":
                engine_fallback = _object_refusal(
                    self.fused, user_sink, profiler, prepared, params
                )
            elif expander is None:
                engine_fallback = (
                    "reference loop forced (fused=False)"
                    if self.fused is False
                    else "no batch kernel for these rules"
                )
            else:
                engine_fallback = _native_refusal(
                    expander, frontier, problem, rb,
                    dispatcher=dispatcher, trace=trace, hot_sink=hot_sink,
                    profiled=lap is not None, early_stop=early_stop,
                )
                if engine_fallback is None:
                    driver = self._start_driver(
                        expander, frontier, prepared, stats, seq=seq,
                        threshold=threshold, incumbent=incumbent_cost,
                        found_cost=found_cost, max_vertices=max_vertices,
                        report_incumbent=channel is not None or (
                            sink is not None and sink.accepts("incumbent")
                        ),
                    )
                    frontier = driver.frontier
            stats.engine_path = (
                "native" if driver is not None
                else "batch" if type(expander) is BatchExpander
                else "fused" if expander is not None
                else "reference"
            )
            stats.engine_fallback = engine_fallback
            if live is not None:
                live.bus.update(
                    engine_path=stats.engine_path,
                    engine_fallback=engine_fallback,
                )

            def _drain() -> None:
                # Pull the driver's search state into the engine locals.
                nonlocal seq, threshold, incumbent_cost, found_cost
                nonlocal best_proc, best_start, incumbent_source
                driver.sync_stats(stats)
                seq = driver.seq
                threshold = driver.threshold
                incumbent_cost = driver.incumbent
                if driver.best_found:
                    found_cost = driver.found_cost
                    best_proc, best_start = driver.best_schedule()
                    incumbent_source = "search"

            def _snapshot(view, in_hand) -> SearchCheckpoint:
                counters = stats.as_dict()
                counters["elapsed"] = stats.time_since_start()
                entries = view.export()
                if in_hand is not None:
                    entries.insert(0, in_hand)
                return SearchCheckpoint(
                    fingerprint=fingerprint,
                    frontier=[(v.state, v.lower_bound, v.seq) for v in entries],
                    seq=seq,
                    incumbent_cost=incumbent_cost,
                    found_cost=found_cost,
                    best_proc=best_proc,
                    best_start=best_start,
                    incumbent_source=incumbent_source,
                    initial_upper_bound=initial_upper_bound,
                    stats=counters,
                )

            def _announce() -> None:
                # One incumbent improvement, told to everyone listening.
                if channel is not None:
                    channel.publish(incumbent_cost)
                if dispatcher is not None:
                    dispatcher.notify_incumbent(incumbent_cost)
                if trace is not None:
                    trace.on_incumbent(stats.generated, incumbent_cost)
                if sink is not None and sink.accepts("incumbent"):
                    sink.emit(
                        "incumbent",
                        {
                            "generated": stats.generated,
                            "explored": stats.explored,
                            "cost": _json_num(incumbent_cost),
                            "elapsed": round(stats.time_since_start(), 6),
                        },
                    )

            def _limit_exceeded(which: str, detail: str) -> None:
                # fail_on_exhaustion path: raise, but hand the caller
                # the anytime result it would otherwise have received.
                stats.stop_clock()
                if best_proc is None:
                    pstatus = SolveStatus.FAILED
                elif which == "TIMELIMIT":
                    pstatus = SolveStatus.TIMEOUT
                elif which == "MEMLIMIT":
                    pstatus = SolveStatus.MEMORY
                else:
                    pstatus = SolveStatus.TRUNCATED
                partial = BnBResult(
                    problem=problem,
                    params=params,
                    status=pstatus,
                    best_cost=(
                        found_cost if best_proc is not None else math.inf
                    ),
                    proc_of=best_proc,
                    start=best_start,
                    incumbent_source=incumbent_source,
                    initial_upper_bound=initial_upper_bound,
                    stats=stats,
                )
                raise ResourceLimitExceeded(which, detail, partial=partial)

            boundary = Boundary(
                stats=stats,
                rb=rb,
                cadence=(
                    _DRIVER_CADENCE if driver is not None else _LOOP_CADENCE
                ),
                inaccuracy=params.inaccuracy,
                prunes_active=elim.prunes_active_set(),
                stop=stop,
                checkpoint=checkpoint,
                snapshot=_snapshot,
                channel=channel,
                live=live,
                progress=progress,
                metrics=metrics,
                sample_metrics=driver is not None,
                sink=sink,
                stop_on_bound=stop_on_bound,
                dominance=dominance,
            )
            check_at = boundary.check_at
            # The Python loop observes these at every explored vertex.
            m_active, h_active, h_gap = (
                boundary.m_active, boundary.h_active, boundary.h_gap
            )

            if lap is not None:
                lap("setup")

            if driver is not None:
                # The driver returns at chunk boundaries, reported
                # improvements, growth points, the MAXVERT cap and
                # branching errors; everything else about the search
                # is bit-identical to the loop below.
                announced = stats.incumbent_updates
                driver.retarget(
                    check_at, incumbent_cost, threshold, stats.pruned_active
                )
                while True:
                    code = driver.step()
                    if (
                        code == _native.ST_GROW_ARENA
                        or code == _native.ST_GROW_FRONT
                    ):
                        driver.grow(code)
                    elif code == _native.ST_CHECK:
                        _drain()
                        stop_kind = boundary.service(
                            frontier, driver.pending_vertex(),
                            incumbent_cost, threshold,
                        )
                        if stop_kind is not None:
                            pending_vertex = driver.take_pending()
                            break
                        driver.retarget(
                            boundary.check_at, boundary.incumbent,
                            boundary.threshold, stats.pruned_active,
                        )
                    elif code == _native.ST_INCUMBENT:
                        _drain()
                        announced = stats.incumbent_updates
                        _announce()
                    else:
                        break
                _drain()
                if stats.incumbent_updates != announced:
                    _announce()
                if code == _native.ST_MAXVERT:
                    stop_kind = "MAXVERT"
                elif code == _native.ST_ERR_NOT_READY:
                    # Replay the branching call on the offending vertex
                    # so the identical ConfigurationError surfaces.
                    prepared.branch_tasks(
                        ArenaState(expander.arena, driver.err_slot())
                    )
                    raise ConfigurationError(
                        "native driver flagged an unready fixed-order task"
                    )
                # ST_DONE / ST_BOUNDSTOP: search complete.
            else:
                # Step 3-10: the main loop.
                while True:
                    vertex = frontier.pop()
                    if vertex is None:
                        if lap is not None:
                            lap("select")
                        break

                    # Step 5: stop condition for S.  Under best-first selection
                    # a popped vertex at/above the threshold ends the whole
                    # search; under LIFO/FIFO it is merely skipped (it was
                    # pushed before the incumbent improved).
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

                    # Chunk boundary: the vertex is in hand but untouched,
                    # so a stop leaves it pending (snapshots and the open
                    # lower bound still count it as part of the open search).
                    if stats.explored >= check_at:
                        stop_kind = boundary.service(
                            frontier, vertex, incumbent_cost, threshold
                        )
                        if lap is not None:
                            lap("telemetry")
                        if stop_kind is not None:
                            pending_vertex = vertex
                            break
                        incumbent_cost = boundary.incumbent
                        threshold = boundary.threshold
                        check_at = boundary.check_at

                    if dispatcher is not None and vertex.level >= dispatch_depth:
                        # Delegate the whole subtree: the dispatcher returns
                        # the finished sub-search (the shard explored the
                        # root itself, so no explored increment here) and
                        # the merge below mirrors what the inline loop would
                        # have done with the shard's goals — absorb the
                        # counters, adopt a better incumbent, sweep once at
                        # the final threshold (consecutive sweeps at
                        # monotonically tightening thresholds collapse into
                        # one), honour early-stop and the MAXVERT cap.
                        sub = dispatcher.resolve(
                            vertex, incumbent_cost, max_vertices - stats.generated
                        )
                        stats.absorb(sub.stats, active_base=len(frontier))
                        if (
                            sub.proc_of is not None
                            and sub.best_cost < incumbent_cost
                        ):
                            incumbent_cost = sub.best_cost
                            found_cost = sub.best_cost
                            best_proc = sub.proc_of
                            best_start = sub.start
                            incumbent_source = "search"
                            if trace is not None:
                                trace.on_incumbent(stats.generated, incumbent_cost)
                            threshold = pruning_threshold(
                                incumbent_cost, params.inaccuracy
                            )
                            if elim.prunes_active_set():
                                stats.pruned_active += frontier.prune_above(
                                    threshold
                                )
                            if channel is not None:
                                channel.publish(incumbent_cost)
                            dispatcher.notify_incumbent(incumbent_cost)
                            if (
                                early_stop is not None
                                and incumbent_cost <= early_stop
                            ):
                                target_reached = True
                                break
                        if sub.status is SolveStatus.TARGET_REACHED:
                            target_reached = True
                            break
                        if stats.generated >= max_vertices:
                            if rb.fail_on_exhaustion:
                                _limit_exceeded(
                                    "MAXVERT", f"{stats.generated} generated"
                                )
                            stats.truncated = True
                            break
                        if lap is not None:
                            lap("select")
                        continue

                    stats.explored += 1
                    if lap is not None:
                        lap("select")

                    if telem:
                        active_size = len(frontier)
                        if trace is not None:
                            trace.on_explore(
                                stats.explored,
                                stats.generated,
                                vertex.level,
                                vertex.lower_bound,
                                active_size,
                            )
                        if hot_sink is not None and hot_sink.accepts("explore"):
                            hot_sink.emit(
                                "explore",
                                {
                                    "step": stats.explored,
                                    "generated": stats.generated,
                                    "level": vertex.level,
                                    "lb": vertex.lower_bound,
                                    "active": active_size,
                                },
                            )
                        if metrics is not None:
                            m_active.set(active_size)
                            h_active.observe(active_size)
                            if not math.isinf(incumbent_cost):
                                h_gap.observe(
                                    incumbent_cost - vertex.lower_bound
                                )
                        if lap is not None:
                            lap("telemetry")

                    # Step 6-7: branch and bound the children.
                    precheck_pruned = 0
                    if expander is not None:
                        # Fused hot path: branching, state construction and
                        # bounding in one pass (see repro.core.expand).  The
                        # admission pre-check discards only children the
                        # reference loop would prune, after consuming their
                        # sequence numbers, so all counters stay identical;
                        # its discards are folded into pruned_children below.
                        (
                            seq, children, n_gen, n_goals, precheck_pruned,
                            n_infeasible, n_dominated, best_goal_cost,
                            best_goal_state,
                        ) = expander.expand(vertex, threshold, seq)
                        stats.generated += n_gen
                        stats.goals_evaluated += n_goals
                        stats.pruned_infeasible += n_infeasible
                        stats.pruned_dominated += n_dominated
                        # Close the expand span before any event dispatch so
                        # sink time is attributed to telemetry, not expand.
                        if lap is not None:
                            lap("expand")
                        if hot_sink is not None:
                            # Event parity is coarse on the fused path:
                            # per-child goal/prune events are aggregated.
                            if n_goals and hot_sink.accepts("goal"):
                                hot_sink.emit(
                                    "goal",
                                    {"generated": stats.generated,
                                     "count": n_goals,
                                     "cost": _json_num(best_goal_cost)},
                                )
                            if n_infeasible and hot_sink.accepts("prune"):
                                hot_sink.emit(
                                    "prune",
                                    {"cause": "infeasible",
                                     "count": n_infeasible,
                                     "level": vertex.level + 1},
                                )
                            if n_dominated and hot_sink.accepts("prune"):
                                hot_sink.emit(
                                    "prune",
                                    {"cause": "dominated",
                                     "count": n_dominated,
                                     "level": vertex.level + 1},
                                )
                            if lap is not None:
                                lap("telemetry")
                    else:
                        placements = prepared.placements(
                            vertex.state, break_symmetry
                        )
                        if lap is not None:
                            lap("branch")
                        children = []
                        best_goal_cost = math.inf
                        best_goal_state = None
                        for task, proc in placements:
                            child_state = vertex.state.child(task, proc)
                            stats.generated += 1
                            if lap is not None:
                                lap("branch")
                            child_lb = bound.evaluate(child_state)
                            # States may carry their own floor (the
                            # allocation-load bound of AO states; -inf class
                            # default everywhere else).
                            floor = child_state.lb_floor
                            if floor > child_lb:
                                child_lb = floor
                            if lap is not None:
                                lap("bound")
                            if child_state.is_goal:
                                # Goal vertices never enter the active set:
                                # track the cheapest one in DB (Figure 2,
                                # steps 1-5).
                                stats.goals_evaluated += 1
                                if child_lb < best_goal_cost:
                                    best_goal_cost = child_lb
                                    best_goal_state = child_state
                                if (
                                    hot_sink is not None
                                    and hot_sink.accepts("goal")
                                ):
                                    hot_sink.emit(
                                        "goal",
                                        {"generated": stats.generated,
                                         "cost": _json_num(child_lb)},
                                    )
                                if lap is not None:
                                    lap("goal-eval")
                                continue
                            if not charf.admits(child_state, child_lb):
                                stats.pruned_infeasible += 1
                                if (
                                    hot_sink is not None
                                    and hot_sink.accepts("prune")
                                ):
                                    hot_sink.emit(
                                        "prune",
                                        {"cause": "infeasible",
                                         "lb": _json_num(child_lb),
                                         "level": vertex.level + 1},
                                    )
                                if lap is not None:
                                    lap("filter")
                                continue
                            if lap is not None:
                                lap("filter")
                            if dominance.is_dominated(child_state):
                                stats.pruned_dominated += 1
                                if (
                                    hot_sink is not None
                                    and hot_sink.accepts("prune")
                                ):
                                    hot_sink.emit(
                                        "prune",
                                        {"cause": "dominated",
                                         "lb": _json_num(child_lb),
                                         "level": vertex.level + 1},
                                    )
                                if lap is not None:
                                    lap("dominance")
                                continue
                            if lap is not None:
                                lap("dominance")
                            children.append(Vertex(child_state, child_lb, seq))
                            seq += 1

                    # Figure 2 steps 1-5: incumbent update from the cheapest
                    # goal.
                    threshold_tightened = False
                    if (
                        best_goal_state is not None
                        and best_goal_cost < incumbent_cost
                    ):
                        threshold_tightened = True
                        incumbent_cost = best_goal_cost
                        found_cost = best_goal_cost
                        best_proc = best_goal_state.proc_of
                        best_start = best_goal_state.start
                        incumbent_source = "search"
                        stats.incumbent_updates += 1
                        _announce()
                        threshold = pruning_threshold(
                            incumbent_cost, params.inaccuracy
                        )
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
                        if early_stop is not None and incumbent_cost <= early_stop:
                            target_reached = True
                            if lap is not None:
                                lap("goal-eval")
                            break
                    if lap is not None:
                        lap("goal-eval")

                    # Figure 2 step 6, DB half: eliminate children.  The
                    # fused path's pre-checked children are exactly the ones
                    # this stage would have pruned (their bounds met the
                    # threshold before it could only have tightened), so
                    # they count here.
                    if precheck_pruned:
                        stats.pruned_children += precheck_pruned
                        if hot_sink is not None and hot_sink.accepts("prune"):
                            hot_sink.emit(
                                "prune",
                                {"cause": "bound", "count": precheck_pruned,
                                 "level": vertex.level + 1},
                            )
                    if fused_precheck and not threshold_tightened:
                        # Pre-checked children are already strictly below
                        # this very threshold; re-testing each one cannot
                        # prune anything unless a goal just tightened it.
                        kept = children
                    else:
                        kept = []
                        for child in children:
                            if elim.should_prune(child.lower_bound, threshold):
                                stats.pruned_children += 1
                                if (
                                    hot_sink is not None
                                    and hot_sink.accepts("prune")
                                ):
                                    hot_sink.emit(
                                        "prune",
                                        {"cause": "bound",
                                         "lb": _json_num(child.lower_bound),
                                         "level": vertex.level + 1},
                                    )
                            else:
                                kept.append(child)

                    # RB: MAXSZDB caps the child set (keep the best bounds).
                    if len(kept) > max_children:
                        if rb.fail_on_exhaustion:
                            if sink is not None and sink.accepts("resource"):
                                sink.emit(
                                    "resource",
                                    {"kind": "MAXSZDB",
                                     "detail": f"{len(kept)} children"},
                                )
                            _limit_exceeded(
                                "MAXSZDB", f"{len(kept)} children"
                            )
                        kept.sort(key=_BY_BOUND)
                        dropped_db = len(kept) - int(rb.max_children)
                        stats.dropped_resource += dropped_db
                        stats.truncated = True
                        del kept[int(rb.max_children):]
                        if sink is not None and sink.accepts("resource"):
                            sink.emit(
                                "resource",
                                {"kind": "MAXSZDB", "dropped": dropped_db},
                            )

                    # Step 9: move the survivors into AS.
                    if child_order == "best-last":
                        # Stable descending sort: equal bounds keep
                        # insertion order, matching the negated-key sort.
                        kept.sort(key=_BY_BOUND, reverse=True)
                    elif child_order == "best-first":
                        kept.sort(key=_BY_BOUND)
                    for child in kept:
                        frontier.push(child)
                    if dispatcher is not None:
                        budget_guess = max_vertices - stats.generated
                        for child in kept:
                            if child.level >= dispatch_depth:
                                dispatcher.offer(
                                    child, incumbent_cost, budget_guess
                                )

                    active = len(frontier)
                    if active > stats.peak_active:
                        stats.peak_active = active

                    # RB: MAXSZAS disposes of the worst active vertices.
                    if active > max_active:
                        if rb.fail_on_exhaustion:
                            if sink is not None and sink.accepts("resource"):
                                sink.emit(
                                    "resource",
                                    {"kind": "MAXSZAS",
                                     "detail": f"{active} active"},
                                )
                            _limit_exceeded(
                                "MAXSZAS", f"{active} active"
                            )
                        dropped = frontier.drop_worst(active - int(rb.max_active))
                        stats.dropped_resource += dropped
                        stats.truncated = True
                        if sink is not None and sink.accepts("resource"):
                            sink.emit(
                                "resource",
                                {"kind": "MAXSZAS", "dropped": dropped},
                            )

                    # RB extension: generated-vertex cap.
                    if stats.generated >= max_vertices:
                        stop_kind = "MAXVERT"
                        if lap is not None:
                            lap("eliminate")
                        break
                    if lap is not None:
                        lap("eliminate")

            if stop_kind == "MAXVERT":
                detail = f"{stats.generated} generated"
                if sink is not None and sink.accepts("resource"):
                    sink.emit("resource", {"kind": "MAXVERT", "detail": detail})
                if rb.fail_on_exhaustion:
                    _limit_exceeded("MAXVERT", detail)
                stats.truncated = True
            elif stop_kind is not None and stop_kind != "INTERRUPTED":
                if rb.fail_on_exhaustion:
                    _limit_exceeded(*boundary.stopped)
        finally:
            # Always populate stats.elapsed, even when a resource bound
            # raises mid-solve (stop_clock is idempotent, so the normal
            # path is unaffected).
            stats.stop_clock()

        status = self._status(
            params, stats, target_reached, best_proc is not None
        )

        # Anytime bookkeeping for early stops: the best open lower bound
        # (frontier plus the in-hand vertex) bounds how far the incumbent
        # can sit from the optimum — but only when nothing was dropped
        # (MAXSZAS/MAXSZDB discards take their subtrees' bounds with
        # them).
        open_lower_bound = None
        stopped_early = (
            stats.interrupted
            or stats.time_limit_hit
            or stats.memory_limit_hit
            or stats.truncated
        )
        if stopped_early and stats.dropped_resource == 0:
            open_lower_bound = frontier.min_bound()
            if pending_vertex is not None and (
                open_lower_bound is None
                or pending_vertex.lower_bound < open_lower_bound
            ):
                open_lower_bound = pending_vertex.lower_bound

        # Final snapshot: an early-stopped run always leaves a resumable
        # file behind, whatever the periodic cadence last did.
        checkpoint_path = None
        if checkpoint is not None:
            if stopped_early:
                checkpoint_path = boundary.write_checkpoint(
                    frontier, pending_vertex, final=True
                )
            elif checkpoint.writes:
                checkpoint_path = checkpoint.path

        if lap is not None:
            lap("finalize")

        # Fold the dominance checker's post-solve telemetry into the
        # run's stats: transposition hits are split out of the dominated
        # count into `pruned_duplicate` so reports break pruning down by
        # rule (elimination vs dominance vs transposition).
        dom_tel = dominance.telemetry()
        if dom_tel:
            dup = dom_tel.get("duplicate_pruned", 0)
            if dup:
                stats.pruned_duplicate = dup
                stats.pruned_dominated -= dup

        if metrics is not None:
            _final_metrics(metrics, stats, incumbent_cost)
            if dom_tel:
                _tt_metrics(metrics, dom_tel)
        if sink is not None and dom_tel and sink.accepts("tt"):
            sink.emit("tt", {k: int(v) for k, v in dom_tel.items()})
        if sink is not None and sink.accepts("summary"):
            sink.emit(
                "summary",
                {
                    "status": status.value,
                    "best_cost": (
                        _json_num(found_cost)
                        if best_proc is not None
                        else None
                    ),
                    "initial_upper_bound": _json_num(initial_upper_bound),
                    "incumbent_source": incumbent_source,
                    "stats": stats.as_dict(),
                    "engine_path": stats.engine_path,
                    "engine_fallback": stats.engine_fallback,
                    "profile": (
                        dict(profiler.totals) if profiler is not None else None
                    ),
                },
            )
        boundary.finish(
            status.value,
            optimal=status is SolveStatus.OPTIMAL,
            frontier=frontier,
            incumbent=found_cost if best_proc is not None else None,
            open_lower_bound=open_lower_bound,
        )
        if lap is not None:
            lap("telemetry")

        return BnBResult(
            problem=problem,
            params=params,
            status=status,
            best_cost=found_cost if best_proc is not None else math.inf,
            proc_of=best_proc,
            start=best_start,
            incumbent_source=incumbent_source,
            initial_upper_bound=initial_upper_bound,
            stats=stats,
            profile=profiler.freeze() if profiler is not None else None,
            open_lower_bound=open_lower_bound,
            checkpoint_path=checkpoint_path,
        )

    # ------------------------------------------------------------------

    def _start_driver(
        self, expander, frontier, prepared, stats, *, seq, threshold,
        incumbent, found_cost, max_vertices, report_incumbent,
    ):
        """Hand the seeded frontier to a native driver.

        Roots, restored snapshots and subtree roots all arrive through
        ``frontier.export()``; foreign states are adopted into the
        arena.  The exported vertices belong to the driver afterwards.
        """
        params = self.params
        entries = []
        for v in frontier.export():
            st = v.state
            if type(st) is not ArenaState or st.arena is not expander.arena:
                st = expander._ensure_row(v)
            st.disown()
            entries.append((v.lower_bound, v.seq, st.slot, st.level))
        return _native.NativeDriver(
            expander.arena,
            expander.ap,
            frontier_kind=_NATIVE_FRONTIER_KINDS[type(frontier)],
            bound_kind=expander.bound_kind,
            child_order=_CHILD_ORDER_CODES[params.child_order],
            elim_none=type(params.elimination) is NoElimination,
            stop_on_bound=params.selection.stop_on_bound,
            break_symmetry=params.break_symmetry,
            fixed_order=getattr(prepared, "order", None),
            entries=entries,
            seq=seq,
            threshold=threshold,
            incumbent=incumbent,
            found_cost=found_cost,
            inaccuracy=params.inaccuracy,
            max_vertices=max_vertices,
            stats=stats,
            report_incumbent=report_incumbent,
        )

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
