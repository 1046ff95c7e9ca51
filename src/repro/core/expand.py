"""Fused branch + bound + admission expansion (the engine's hot path).

The reference loop in :mod:`repro.core.engine` performs, per child:
build a frozen :class:`~repro.core.state.SearchState` (five tuple
copies), then run the lower bound's full ``O(n + E)`` recursion over
it.  For the paper's configurations almost all of that work is wasted —
most children are pruned immediately, and the surviving ones differ
from their parent by a single placement.

:class:`FusedExpander` collapses branching, state construction and
bounding into one pass with three ideas:

1. **Incremental bounds** — LB0/LB1 child bounds are computed from the
   parent's estimate vectors via
   :meth:`~repro.core.bounds.LowerBound.make_incremental`, touching only
   the placed task's descendant cone (plus, for LB1, tasks pinned by an
   advanced ``l_min``).  The evaluators replicate the reference float
   operations, so bounds — and therefore vertex counts — are identical.
2. **Tail admission pre-check** — before bounding, a child is discarded
   when a cheap under-estimate of its bound already meets the
   elimination threshold: ``max(parent_lb, f - D_task)`` (exact for
   monotone bounds) and the static-tail pressure
   ``s + tail_lateness[task]`` minus a rounding margin (sound for
   bounds dominating the critical-path recursion).  Discards happen at
   the *old* threshold, which only tightens before the reference engine
   would test the same child, so every pre-checked child is one the
   reference prunes too: ``generated``/``explored``/``pruned`` counters
   stay byte-identical.
3. **Scratch buffers** — the incremental evaluator works in reusable
   scratch vectors; tuples/lists are frozen (:meth:`commit`) only for
   children that actually enter the active set.

Search-order parity: the pre-check is enabled only when the
characteristic function admits everything, the dominance checker is a
no-op *or supports the replay-consistent probe contract* (see below),
the bound is monotone and elimination is monotone in the bound.  Under
those conditions every non-goal child consumes a sequence number
exactly as the reference loop would have (pre-checked children *are*
reference-pruned children, and reference pruning happens after seq
assignment), so heap tie-breaks — hence exploration order and all
statistics — are unchanged.  Outside those conditions the expander
still runs (incremental bounds, scratch buffers) but discards nothing
early, and stateful dominance checkers observe the exact reference
child stream.

Stateful dominance on the fast path: a checker advertising
``supports_probe`` (the transposition layer) answers
``probe_placement(parent, task, proc, s, f)`` identically to
materializing the child and calling ``is_dominated`` — including store
mutations.  The expander probes every non-goal placement *first*,
before any bound-based discard, because that is where the reference
loop runs dominance: before its post-expansion threshold filter.  A
dominated child consumes no sequence number on either path; a probe
survivor is recorded in the checker's store on both paths even if the
pre-check then discards it (the reference loop records it and prunes it
at the threshold filter).  Counters therefore stay byte-identical, and
the lazy :class:`PendingChild` deferral stays on — nothing downstream
of the probe inspects the child state.
"""

from __future__ import annotations

import math

from .._lazy import lazy_exports
from ..model.compile import CompiledProblem
from .branching import PreparedBranching
from .bounds import LowerBound
from .dominance import DominanceChecker
from .elimination import EliminationRule, UDBASElimination
from .feasibility import CharacteristicFunction
from .state import SearchState, root_state
from .vertex import Vertex

__all__ = [
    "FusedExpander",
    "PendingChild",
    "BatchExpander",
    "make_batch_expander",
]


class PendingChild:
    """A frontier child's state, deferred until the vertex is popped.

    Best-first searches push far more children than they ever pop — the
    rest are swept when the incumbent improves, dropped by MAXSZAS, or
    abandoned when the stop condition fires.  Freezing five tuples per
    pushed child is therefore mostly wasted work.  When the fused path
    runs with no characteristic function and no dominance rule (nothing
    downstream inspects child states), it pushes this placement record
    instead; :meth:`~FusedExpander.expand` materializes the real
    :class:`~repro.core.state.SearchState` on first expansion.

    The shim exposes the two attributes the engine reads off unexpanded
    vertices (``level`` for telemetry, ``is_goal`` for completeness —
    goal vertices never enter the active set, so it is always False).
    """

    __slots__ = ("parent", "task", "proc", "s", "f", "lmin", "level")

    is_goal = False

    def __init__(
        self,
        parent: SearchState,
        task: int,
        proc: int,
        s: float,
        f: float,
        lmin: float | None,
    ) -> None:
        self.parent = parent
        self.task = task
        self.proc = proc
        self.s = s
        self.f = f
        self.lmin = lmin
        self.level = parent.level + 1

    def materialize(self) -> SearchState:
        state = self.parent.child_placed(self.task, self.proc, self.s, self.f)
        if self.lmin is not None:
            state._lmin = self.lmin
        return state

    def __reduce__(self):
        # Pickling a pending child naively would drag in its parent
        # state — and, through chained pending parents, an unbounded
        # prefix of the search tree.  The parallel driver ships frontier
        # states across processes, so serialize the materialized flat
        # state instead: the receiver observes exactly what
        # ``materialize()`` would have produced locally.
        return (_identity, (self.materialize(),))


def _identity(state: SearchState) -> SearchState:
    """Unpickle target for :meth:`PendingChild.__reduce__`."""
    return state


class FusedExpander:
    """One per solve; :meth:`expand` returns one flat result tuple."""

    __slots__ = (
        "p",
        "prepared",
        "bound",
        "inc",
        "charf",
        "dominance",
        "elim",
        "break_symmetry",
        "admits_all",
        "dom_noop",
        "dom_probe",
        "precheck",
        "tail_check",
        "lazy_states",
        "fast_udbas",
        "uses_lmin",
        "_procs",
        "_eps",
        "_maxabs_deadline",
        "_floc",
    )

    def __init__(
        self,
        problem: CompiledProblem,
        prepared: PreparedBranching,
        bound: LowerBound,
        charf: CharacteristicFunction,
        dominance: DominanceChecker,
        elim: EliminationRule,
        break_symmetry: bool,
    ) -> None:
        self.p = problem
        self.prepared = prepared
        self.bound = bound
        self.inc = bound.make_incremental(problem)
        self.charf = charf
        self.dominance = dominance
        self.elim = elim
        self.break_symmetry = break_symmetry
        self.admits_all = charf.admits_all
        self.dom_noop = dominance.is_noop
        # A probe-capable checker (transposition layer) is consulted at
        # the top of the placement loop instead of on materialized
        # children; only sound when the characteristic function admits
        # everything (the reference loop runs it before dominance).
        self.dom_probe = (
            dominance.probe_placement
            if (
                self.admits_all
                and not self.dom_noop
                and dominance.supports_probe
            )
            else None
        )
        # Early discards are sound only when nothing downstream of the
        # bound test can observe the discarded child (see module doc) —
        # or when the one observer is a probe-capable checker consulted
        # up front.
        self.precheck = (
            self.admits_all
            and (self.dom_noop or self.dom_probe is not None)
            and bound.monotone
            and elim.monotone_in_bound
        )
        self.tail_check = self.precheck and bound.tail_admissible
        # Child states may be deferred whenever nothing downstream of
        # the bound inspects them (no filter, and any dominance store is
        # fed through the probe before deferral).
        self.lazy_states = self.admits_all and (
            self.dom_noop or self.dom_probe is not None
        )
        # U/DBAS's threshold test is a bare comparison; inlining it
        # saves three method calls per child on the default config.
        self.fast_udbas = type(elim) is UDBASElimination
        self.uses_lmin = self.inc.uses_lmin if self.inc is not None else False
        # Rounding margin for the tail pre-check: the reference bound
        # accumulates the chain `s + c_1 + ... + c_k - D_k` one float op
        # at a time while `tail_lateness` pre-sums it in a different
        # association order.  Round-to-nearest keeps each partial sum
        # within 2^-52 relative, so discounting
        # `eps * (|s| + tail + max|D|)` with eps = 4 (n + 2) 2^-52 can
        # never discard a child whose true bound is below the threshold.
        self._eps = 4.0 * (problem.n + 2) * 2.0 ** -52
        self._maxabs_deadline = (
            max(abs(d) for d in problem.deadline) if problem.n else 0.0
        )
        self._procs = tuple(range(problem.m))
        #: Per-task scratch: max local predecessor finish per processor.
        self._floc = [-math.inf] * problem.m

    # ------------------------------------------------------------------

    def root(self) -> Vertex:
        """Root vertex carrying the incremental estimate vectors."""
        return self.root_from(root_state(self.p))

    def root_from(
        self, state: SearchState, lower_bound: float | None = None
    ) -> Vertex:
        """Seed vertex for a search rooted at an arbitrary state.

        Sub-searches (the parallel driver's subtree shards) restart the
        engine from a mid-tree state shipped across a process boundary.
        The incremental evaluator rebuilds the estimate vectors with a
        full evaluation — the same float operations the fused path's
        commit chain performed, so the vectors (and every child bound
        derived from them) are bitwise identical to the originals.  When
        the caller already knows the vertex's bound it passes it in;
        otherwise the fresh evaluation supplies it.
        """
        inc = self.inc
        if inc is not None:
            lb, est, estart = inc.root(state)
            if lower_bound is not None:
                lb = lower_bound
            return Vertex(state, lb, 0, est, estart)
        if lower_bound is None:
            lower_bound = self.bound.evaluate(state)
        return Vertex(state, lower_bound, 0)

    def expand(self, vertex: Vertex, threshold: float, seq: int):
        """Branch ``vertex``, bound every child, admit the survivors.

        Returns ``(seq, children, generated, goals, skipped,
        infeasible, dominated, best_goal_cost, best_goal_state)`` as one
        flat tuple the engine unpacks into its counters.
        """
        p = self.p
        state = vertex.state
        if type(state) is PendingChild:
            state = state.materialize()
            vertex.state = state
        parent_lb = vertex.lower_bound
        inc = self.inc
        est = vertex.est
        estart = vertex.estart
        if inc is not None and est is None:
            # Defensive: on an all-fused solve even the root carries its
            # vectors, but recover gracefully if a vertex arrived bare.
            _, est, estart = inc.root(state)
        # Iterate branch_tasks x procs directly (task-major, the exact
        # placements() order) so per-task values hoist out of the
        # processor loop and no placement-tuple list is built.
        tasks = self.prepared.branch_tasks(state)
        procs = (
            self.prepared._procs_for(state, True)
            if self.break_symmetry
            else self._procs
        )

        proc_of = state.proc_of
        fin = state.finish
        avail = state.avail
        wcet = p.wcet
        arrival = p.arrival
        deadline = p.deadline
        tail = p.tail
        tail_lateness = p.tail_lateness
        pred_edges = p.pred_edges
        uniform = p.uniform_delay
        earliest_start = p.earliest_start
        child_placed = state.child_placed
        elim_prune = self.elim.should_prune
        inc_child = inc.child if inc is not None else None
        sched_parent = state.scheduled_mask
        # Every placement is one level deeper; hoist the goal test.
        goal_children = state.level == p.n - 1

        precheck = self.precheck
        tail_check = self.tail_check
        lazy = self.lazy_states
        fast = self.fast_udbas
        admits_all = self.admits_all
        dom_noop = self.dom_noop
        dom_probe = self.dom_probe
        eps = self._eps
        maxd = self._maxabs_deadline
        uses_lmin = self.uses_lmin
        lmin = 0.0
        lmin_changed = False
        if uses_lmin:
            # Placing on processor q replaces avail[q] with a no-smaller
            # finish time, so the child's l_min moves only when q was
            # the *unique* minimum: precompute the minimum's value,
            # multiplicity and runner-up once per expansion.
            parent_lmin = state.min_avail()
            nmin = 0
            lmin2 = math.inf
            for a in avail:
                if a == parent_lmin:
                    nmin += 1
                elif a < lmin2:
                    lmin2 = a
            if nmin == 1:
                # Some child may advance the floor (to at most lmin2);
                # let the evaluator cache the tasks a shift can move.
                inc.begin(est, estart, sched_parent, lmin2)
        else:
            parent_lmin = 0.0

        children: list[Vertex] = []
        goals = 0
        skipped = 0
        infeasible = 0
        dominated = 0
        best_goal_cost = math.inf
        best_goal_state: SearchState | None = None

        if goal_children:
            # Goal vertices: their cost is the true maximum lateness.
            # Never pre-checked, never sequenced (goals do not enter the
            # active set) — exactly the reference flow.
            generated = 0
            floc = self._floc
            m = p.m
            for task in tasks:
                wt = wcet[task]
                arr = arrival[task]
                cmask = sched_parent | (1 << task)
                if uniform is not None:
                    # One pass over predecessors: max local finish per
                    # host plus the top-two remote arrivals by host, so
                    # each processor's earliest start is O(1) below.
                    for q in range(m):
                        floc[q] = -math.inf
                    r1 = r2 = -math.inf
                    h1 = -1
                    for j, size in pred_edges[task]:
                        fj = fin[j]
                        pj = proc_of[j]
                        if fj > floc[pj]:
                            floc[pj] = fj
                        rj = fj + size * uniform
                        if pj == h1:
                            if rj > r1:
                                r1 = rj
                        elif rj > r1:
                            r2 = r1
                            r1 = rj
                            h1 = pj
                        elif rj > r2:
                            r2 = rj
                for proc in procs:
                    generated += 1
                    goals += 1
                    ap = avail[proc]
                    if uniform is not None:
                        s = arr
                        if ap > s:
                            s = ap
                        fl = floc[proc]
                        if fl > s:
                            s = fl
                        rmax = r2 if h1 == proc else r1
                        if rmax > s:
                            s = rmax
                    else:
                        s = earliest_start(task, proc, proc_of, fin, ap)
                    f = s + wt
                    if inc is not None:
                        if uses_lmin:
                            if ap != parent_lmin or nmin > 1:
                                lmin = parent_lmin
                                lmin_changed = False
                            else:
                                lmin = lmin2 if lmin2 < f else f
                                lmin_changed = lmin != parent_lmin
                        child_lb = inc_child(
                            est, estart, parent_lb, task, f,
                            cmask, lmin, lmin_changed,
                        )
                        if child_lb < best_goal_cost:
                            best_goal_cost = child_lb
                            best_goal_state = child_placed(task, proc, s, f)
                    else:
                        child_state = child_placed(task, proc, s, f)
                        child_lb = self.bound.evaluate(child_state)
                        if child_lb < best_goal_cost:
                            best_goal_cost = child_lb
                            best_goal_state = child_state
            return (
                seq, children, generated, goals, skipped,
                infeasible, dominated, best_goal_cost, best_goal_state,
            )

        generated = len(tasks) * len(procs)
        floc = self._floc
        m = p.m
        for task in tasks:
            wt = wcet[task]
            dl = deadline[task]
            arr = arrival[task]
            cmask = sched_parent | (1 << task)
            tl = tail_lateness[task]
            tb = tail[task]
            if uniform is not None:
                # One pass over predecessors (same float expressions as
                # earliest_start; max is exact, so any evaluation order
                # gives bit-identical starts): max local finish per host
                # plus the top-two remote arrivals by host.  Each
                # processor's earliest start is then O(1): the global
                # remote max r1 applies unless the processor *is* r1's
                # host, in which case the best other-host arrival r2
                # (exactly max over hosts != h1) applies.
                for q in range(m):
                    floc[q] = -math.inf
                r1 = r2 = -math.inf
                h1 = -1
                for j, size in pred_edges[task]:
                    fj = fin[j]
                    pj = proc_of[j]
                    if fj > floc[pj]:
                        floc[pj] = fj
                    rj = fj + size * uniform
                    if pj == h1:
                        if rj > r1:
                            r1 = rj
                    elif rj > r1:
                        r2 = r1
                        r1 = rj
                        h1 = pj
                    elif rj > r2:
                        r2 = rj
            for proc in procs:
                ap = avail[proc]
                if uniform is not None:
                    s = arr
                    if ap > s:
                        s = ap
                    fl = floc[proc]
                    if fl > s:
                        s = fl
                    rmax = r2 if h1 == proc else r1
                    if rmax > s:
                        s = rmax
                else:
                    s = earliest_start(task, proc, proc_of, fin, ap)
                f = s + wt

                if dom_probe is not None and dom_probe(state, task, proc, s, f):
                    # Duplicate/dominated placement.  Probed before any
                    # bound discard — the reference loop runs dominance
                    # ahead of its threshold filter — and, like there, a
                    # dominated child consumes no sequence number.
                    dominated += 1
                    continue

                if precheck:
                    # Exact floor: monotone bounds satisfy
                    # L(child) >= max(L(parent), f - D_task).
                    floor = f - dl
                    if floor < parent_lb:
                        floor = parent_lb
                    if (floor >= threshold) if fast else elim_prune(
                        floor, threshold
                    ):
                        skipped += 1
                        seq += 1
                        continue
                    if tail_check:
                        press = s + tl - eps * (
                            (s if s >= 0.0 else -s) + tb + maxd
                        )
                        if (press >= threshold) if fast else elim_prune(
                            press, threshold
                        ):
                            skipped += 1
                            seq += 1
                            continue

                if inc is not None:
                    if uses_lmin:
                        if ap != parent_lmin or nmin > 1:
                            lmin = parent_lmin
                            lmin_changed = False
                        else:
                            lmin = lmin2 if lmin2 < f else f
                            lmin_changed = lmin != parent_lmin
                    child_lb = inc_child(
                        est, estart, parent_lb, task, f,
                        cmask, lmin, lmin_changed,
                    )
                    if precheck and (
                        (child_lb >= threshold) if fast else elim_prune(
                            child_lb, threshold
                        )
                    ):
                        # The exact bound is doomed: the reference
                        # engine would freeze this child only to prune
                        # it at a threshold no larger than the current
                        # one.
                        skipped += 1
                        seq += 1
                        continue
                    cest, cestart = inc.commit()
                    if lazy:
                        children.append(Vertex(
                            PendingChild(
                                state, task, proc, s, f,
                                lmin if uses_lmin else None,
                            ),
                            child_lb, seq, cest, cestart,
                        ))
                        seq += 1
                        continue
                    child_state = child_placed(task, proc, s, f)
                    if uses_lmin:
                        child_state._lmin = lmin
                    if not admits_all and not self.charf.admits(
                        child_state, child_lb
                    ):
                        infeasible += 1
                        continue
                    if (
                        not dom_noop
                        and dom_probe is None
                        and self.dominance.is_dominated(child_state)
                    ):
                        dominated += 1
                        continue
                    children.append(
                        Vertex(child_state, child_lb, seq, cest, cestart)
                    )
                    seq += 1
                else:
                    # No incremental form (e.g. LB2): full evaluation,
                    # but the pre-check still spares doomed children
                    # the freeze and the recursion.
                    child_state = child_placed(task, proc, s, f)
                    child_lb = self.bound.evaluate(child_state)
                    if precheck and (
                        (child_lb >= threshold) if fast else elim_prune(
                            child_lb, threshold
                        )
                    ):
                        skipped += 1
                        seq += 1
                        continue
                    if not admits_all and not self.charf.admits(
                        child_state, child_lb
                    ):
                        infeasible += 1
                        continue
                    if (
                        not dom_noop
                        and dom_probe is None
                        and self.dominance.is_dominated(child_state)
                    ):
                        dominated += 1
                        continue
                    children.append(Vertex(child_state, child_lb, seq))
                    seq += 1

        return (
            seq, children, generated, goals, skipped,
            infeasible, dominated, best_goal_cost, best_goal_state,
        )


# The array engine's batch expander lives in :mod:`repro.core.batch`,
# which imports numpy; these names forward to it on first access.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".batch": (
        "BatchExpander",
        "make_batch_expander",
        "batch_admission",
        "batch_earliest_starts",
        "batch_lb_fast",
        "batch_lmin",
    ),
})
