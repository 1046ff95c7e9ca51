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


# ----------------------------------------------------------------------
# Array engine: vectorized batch expansion over the state arena
# ----------------------------------------------------------------------
#
# The batch path computes earliest starts, tail-based admission and the
# LB0/LB1 fast-path bounds for *all* children of a vertex in single
# numpy passes over the parent's arena row.  Placements whose bound
# needs a real repair walk (a minority on the paper workloads) fall back
# to the scalar incremental evaluator on exactly the inputs the fused
# path would hand it, so every float — and therefore every counter and
# sequence number — matches the object engine bit-for-bit.  The batch
# kernels are deliberately small, pure functions of the numpy problem
# mirror so the Hypothesis suite can differential-test each one against
# the scalar reference in isolation.
#
# ``BranchAndBound.solve`` no longer runs ``BatchExpander.expand``: the
# batch tier was slower than the fused path, so a refused native solve
# falls back to fused.  :func:`make_batch_expander` is the native
# driver's gate and builds the arena the driver owns; ``expand`` and the
# ``batch_*`` kernels stay while ``perf/spans.py`` still wraps them.

import numpy as np

from .arena import ArenaProblem, ArenaState, StateArena
from .bounds import _IncrementalLB0, _IncrementalLB1, _IncrementalTrivial
from .branching import _PreparedBFn, _PreparedFixedOrder
from .elimination import NoElimination


def _flat_edge_indices(starts, counts, total):
    """Flat CSR gather indices for a batch of segments.

    ``starts[i]``/``counts[i]`` delimit segment ``i``; returns an int64
    array of length ``total`` listing every segment's members in order.
    """
    if total == 0:
        return np.empty(0, dtype=np.int64)
    base = np.repeat(starts, counts)
    seg0 = np.cumsum(counts) - counts
    offs = np.arange(total, dtype=np.int64) - np.repeat(seg0, counts)
    return base + offs


def batch_earliest_starts(ap, proc_row, finish_row, avail_row, tasks, procs):
    """Start/finish matrices for every (task, proc) placement.

    Replicates ``CompiledProblem.earliest_start`` elementwise: each
    edge contributes ``finish[j]`` locally and ``finish[j] + size * d``
    remotely, both as the identical two-operation float chains, and the
    surrounding maxes are exact in IEEE-754 regardless of evaluation
    order.  Returns ``(S, F)`` of shape ``(len(tasks), len(procs))``.
    """
    counts = ap.pred_off[tasks + 1] - ap.pred_off[tasks]
    total = int(counts.sum())
    base = np.maximum(ap.arrival[tasks][:, None], avail_row[procs][None, :])
    if total:
        flat = _flat_edge_indices(ap.pred_off[tasks], counts, total)
        ej = ap.pred_idx[flat]
        fj = finish_row[ej]
        pj = proc_row[ej].astype(np.int64)
        sz = ap.pred_size[flat]
        if ap.uniform is not None:
            rem = fj + sz * ap.uniform
            r = np.where(pj[:, None] == procs[None, :], fj[:, None], rem[:, None])
        else:
            r = fj[:, None] + sz[:, None] * ap.delay[pj[:, None], procs[None, :]]
        seg0 = np.cumsum(counts) - counts
        segmax = np.maximum.reduceat(r, np.minimum(seg0, total - 1), axis=0)
        segmax[counts == 0] = -np.inf
        S = np.maximum(base, segmax)
    else:
        S = base
    F = S + ap.wcet[tasks][:, None]
    return S, F


def batch_admission(ap, S, F, tasks, parent_lb, threshold, tail_check, exact):
    """Admission pre-check mask: True where the child is a proven skip.

    The floor test ``max(parent_lb, f - D) >= threshold`` is exact for
    monotone bounds.  The tail pressure test normally discounts the
    fused rounding margin; on a certified-exact cost domain the
    pre-summed tail equals the reference chain exactly, so the margin
    is dropped (a margin-free skip implies the exact child bound meets
    the threshold, and skip/post-check discards count identically).
    """
    dl = ap.deadline[tasks][:, None]
    floor = F - dl
    np.maximum(floor, parent_lb, out=floor)
    skip = floor >= threshold
    if tail_check:
        tl = ap.tail_lateness[tasks][:, None]
        if exact:
            press = S + tl
        else:
            tb = ap.tail[tasks][:, None]
            press = S + tl - ap.eps * (np.abs(S) + tb + ap.maxabs_deadline)
        skip |= press >= threshold
    return skip, floor


def batch_lmin(avail_procs, parent_lmin, nmin, lmin2, F):
    """Per-child ``l_min`` floor and moved-flag (LB1 only).

    Mirrors the fused per-placement branch: the floor moves only when
    the placement host held the *unique* parent minimum, in which case
    the child floor is ``min(lmin2, f)``.
    """
    cond = (avail_procs[None, :] == parent_lmin) & (nmin == 1)
    lmin = np.where(cond, np.minimum(lmin2, F), parent_lmin)
    changed = cond & (lmin != parent_lmin)
    return lmin, changed


def batch_lb_fast(est_tasks, F, floor, lb1, changed, min_cand, lmin):
    """Fast-path mask + bound for the incremental LB0/LB1 evaluators.

    A placement realizes its estimate (``f == est[task]``) iff the
    repair walk is a no-op; LB1 additionally requires that an advanced
    floor cannot move any unscheduled candidate (every candidate
    estimate is already >= the child floor).  For fast placements the
    bound is the closed form ``max(parent_lb, f - D)`` — exactly the
    admission floor.
    """
    fast = F == est_tasks[:, None]
    if lb1:
        fast &= ~changed | (min_cand >= lmin)
    return fast, floor


class BatchExpander:
    """Arena-backed expander: same ``expand`` contract as FusedExpander.

    Only constructed by :func:`make_batch_expander` for configurations
    whose counters it provably replicates (see the factory's gates);
    everything else keeps the fused scalar path.  The native driver
    searches over its arena and its root rows.
    """

    __slots__ = (
        "p",
        "ap",
        "arena",
        "prepared",
        "bound",
        "inc",
        "elim",
        "break_symmetry",
        "bound_kind",
        "uses_lmin",
        "prune",
        "tail_check",
        "precheck",
        "lazy_states",
        "fast_udbas",
        "admits_all",
        "dom_noop",
        "_procs",
        "_bitcols",
    )

    def __init__(
        self,
        problem: CompiledProblem,
        prepared: PreparedBranching,
        bound: LowerBound,
        elim: EliminationRule,
        break_symmetry: bool,
        bound_kind: int,
    ) -> None:
        self.p = problem
        self.ap = ArenaProblem(problem)
        self.arena = StateArena(self.ap, track_est=bound_kind != 0)
        self.prepared = prepared
        self.bound = bound
        self.inc = bound.make_incremental(problem)
        self.elim = elim
        self.break_symmetry = break_symmetry
        self.bound_kind = bound_kind
        self.uses_lmin = bound_kind == 2
        # Only U/DBAS discards children; NoElimination never prunes, so
        # its admission masks are identically False (as in the fused
        # path, where elim_prune is constant False).
        self.prune = type(elim) is UDBASElimination
        self.tail_check = self.prune and bound.tail_admissible
        # Mirrors FusedExpander's flags for the engine's postfilter
        # decision (gates guarantee the fused values).
        self.precheck = True
        self.lazy_states = True
        self.fast_udbas = self.prune
        self.admits_all = True
        self.dom_noop = True
        self._procs = np.arange(problem.m, dtype=np.int64)
        self._bitcols = np.arange(problem.n, dtype=np.uint64)

    # ------------------------------------------------------------------

    def root(self) -> Vertex:
        return self.root_from(root_state(self.p))

    def root_from(
        self, state: SearchState, lower_bound: float | None = None
    ) -> Vertex:
        lb, est, estart = self.inc.root(state)
        if lower_bound is not None:
            lb = lower_bound
        slot = self.arena.adopt(
            state,
            est if self.bound_kind else None,
            estart if self.bound_kind else None,
        )
        return Vertex(ArenaState(self.arena, slot), lb, 0)

    def _ensure_row(self, vertex: Vertex) -> ArenaState:
        """Adopt a foreign (non-arena) vertex state into the arena."""
        state = vertex.state
        if type(state) is PendingChild:
            state = state.materialize()
        _, est, estart = self.inc.root(state)
        slot = self.arena.adopt(
            state,
            est if self.bound_kind else None,
            estart if self.bound_kind else None,
        )
        handle = ArenaState(self.arena, slot)
        handle._mat = state if type(state) is SearchState else None
        vertex.state = handle
        return handle

    # ------------------------------------------------------------------

    def expand(self, vertex: Vertex, threshold: float, seq: int):
        """Batch-expand one vertex; same flat 9-tuple as FusedExpander."""
        arena = self.arena
        ap = self.ap
        state = vertex.state
        if type(state) is not ArenaState or state.arena is not arena:
            state = self._ensure_row(vertex)
        slot = state.slot
        parent_lb = vertex.lower_bound
        n, m = ap.n, ap.m

        tasks_list = self.prepared.branch_tasks(state)
        if self.break_symmetry:
            procs_list = self.prepared._procs_for(state, True)
            procs = np.asarray(procs_list, dtype=np.int64)
        else:
            procs_list = None
            procs = self._procs
        tasks = np.asarray(tasks_list, dtype=np.int64)

        proc_row = arena.proc_of[slot]
        fin_row = arena.finish[slot]
        av_row = arena.avail[slot]
        sched = int(arena.sched[slot])
        level = int(arena.level[slot])

        S, F = batch_earliest_starts(ap, proc_row, fin_row, av_row, tasks, procs)
        nt = tasks.shape[0]
        np_ = procs.shape[0]

        if level == n - 1:
            # Goal children: closed-form bound (the repair walk is a
            # no-op at the last level for trivial/LB0/LB1), first
            # minimum in placement order wins, no sequence numbers.
            lbm = F - ap.deadline[tasks][:, None]
            np.maximum(lbm, parent_lb, out=lbm)
            k = int(np.argmin(lbm))
            ti, qi = divmod(k, np_)
            best_goal_cost = float(lbm[ti, qi])
            best_goal_state = state.child_placed(
                int(tasks[ti]), int(procs[qi]), float(S[ti, qi]), float(F[ti, qi])
            )
            count = nt * np_
            return (seq, [], count, count, 0, 0, 0, best_goal_cost, best_goal_state)

        generated = nt * np_
        if self.prune:
            skip, floor = batch_admission(
                ap, S, F, tasks, parent_lb, threshold,
                self.tail_check, ap.domain.exact,
            )
        else:
            dl = ap.deadline[tasks][:, None]
            floor = F - dl
            np.maximum(floor, parent_lb, out=floor)
            skip = np.zeros(F.shape, dtype=bool)

        uses_lmin = self.uses_lmin
        inc = self.inc
        est_list = estart_list = None
        lmin_mat = changed = None
        if uses_lmin:
            parent_lmin = float(arena.lmin[slot])
            nmin = int(np.count_nonzero(av_row == parent_lmin))
            others = av_row[av_row != parent_lmin]
            lmin2 = float(others.min()) if others.size else math.inf
            est_row = arena.est[slot]
            estart_row = arena.estart[slot]
            if nmin == 1:
                est_list = est_row.tolist()
                estart_list = estart_row.tolist()
                inc.begin(est_list, estart_list, sched, lmin2)
                sched_bits = ((np.uint64(sched) >> self._bitcols) & np.uint64(1)).astype(bool)
                cand = estart_row[(estart_row < lmin2) & ~sched_bits]
                min_cand = float(cand.min()) if cand.size else math.inf
            else:
                min_cand = math.inf
            lmin_mat, changed = batch_lmin(
                av_row[procs], parent_lmin, nmin, lmin2, F
            )
        elif self.bound_kind:
            est_row = arena.est[slot]
            estart_row = arena.estart[slot]

        if self.bound_kind:
            fast, clb_fast = batch_lb_fast(
                est_row[tasks], F, floor, uses_lmin, changed,
                min_cand if uses_lmin else 0.0, lmin_mat,
            )
            clb = clb_fast.copy()
            slow = ~fast & ~skip
            slow_commits = {}
            if slow.any():
                if est_list is None:
                    est_list = est_row.tolist()
                    estart_list = estart_row.tolist()
                lin_of = np_  # row stride
                prune = self.prune
                for ti, qi in zip(*np.nonzero(slow)):
                    t = int(tasks[ti])
                    f = float(F[ti, qi])
                    if uses_lmin:
                        lmn = float(lmin_mat[ti, qi])
                        lch = bool(changed[ti, qi])
                    else:
                        lmn = 0.0
                        lch = False
                    val = inc.child(
                        est_list, estart_list, parent_lb, t, f,
                        sched | (1 << t), lmn, lch,
                    )
                    clb[ti, qi] = val
                    if not (prune and val >= threshold):
                        slow_commits[int(ti) * lin_of + int(qi)] = inc.commit()
        else:
            clb = floor

        if self.prune:
            kept = ~(skip | (clb >= threshold))
        else:
            kept = ~skip
        skipped = int(generated - np.count_nonzero(kept))

        K = int(np.count_nonzero(kept))
        children: list[Vertex] = []
        if K:
            lin = np.arange(generated, dtype=np.int64).reshape(nt, np_)
            klin = lin[kept]
            kt = np.broadcast_to(tasks[:, None], (nt, np_))[kept]
            kq = np.broadcast_to(procs[None, :], (nt, np_))[kept]
            kS = S[kept]
            kF = F[kept]
            klb = clb[kept]
            plat = float(arena.lateness[slot])
            pstart = arena.start[slot].copy()
            pfin = fin_row.copy()
            pav = av_row.copy()
            pproc = proc_row.copy()
            if self.bound_kind:
                pest = est_row.copy()
                pestart = estart_row.copy()
            slots = arena.alloc_many(K)

            arena.sched[slots] = np.uint64(sched) | (
                np.uint64(1) << kt.astype(np.uint64)
            )
            # Ready masks: hoisted per task (placement host does not
            # affect readiness), computed with Python ints over the
            # successor CSR.
            ready_mask = int(arena.ready[slot])
            pm = self.p.pred_mask
            so = ap.succ_off
            si = ap.succ_idx
            creadys = np.empty(nt, dtype=np.uint64)
            for i in range(nt):
                t = int(tasks[i])
                bit = 1 << t
                cmask = sched | bit
                cr = ready_mask & ~bit
                inv = ~cmask
                for e in range(int(so[t]), int(so[t + 1])):
                    j = int(si[e])
                    if not (cmask >> j) & 1 and (pm[j] & inv) == 0:
                        cr |= 1 << j
                creadys[i] = cr
            arena.ready[slots] = np.broadcast_to(creadys[:, None], (nt, np_))[kept]
            arena.level[slots] = level + 1
            dlk = np.broadcast_to(ap.deadline[tasks][:, None], (nt, np_))[kept]
            arena.lateness[slots] = np.maximum(kF - dlk, plat)
            arena.last_task[slots] = kt
            arena.last_proc[slots] = kq
            arena.proc_of[slots] = pproc
            arena.proc_of[slots, kt] = kq.astype(np.int8)
            arena.start[slots] = pstart
            arena.start[slots, kt] = kS
            arena.finish[slots] = pfin
            arena.finish[slots, kt] = kF
            arena.avail[slots] = pav
            arena.avail[slots, kq] = kF
            if uses_lmin:
                arena.lmin[slots] = lmin_mat[kept]
            else:
                arena.lmin[slots] = arena.avail[slots].min(axis=1)
            if self.bound_kind:
                arena.est[slots] = pest
                arena.estart[slots] = pestart
                arena.estart[slots, kt] = kF
                if slow_commits:
                    for pos in range(K):
                        com = slow_commits.get(int(klin[pos]))
                        if com is not None:
                            arena.est[slots[pos]] = com[0]
                            arena.estart[slots[pos]] = com[1]

            kseq = seq + klin
            children = [
                Vertex(ArenaState(arena, int(sl)), float(lb_), int(sq))
                for sl, lb_, sq in zip(slots, klb, kseq)
            ]

        seq += generated
        return (seq, children, generated, 0, skipped, 0, 0, math.inf, None)


def make_batch_expander(
    problem: CompiledProblem,
    prepared: PreparedBranching,
    bound: LowerBound,
    charf: CharacteristicFunction,
    dominance: DominanceChecker,
    elim: EliminationRule,
    break_symmetry: bool,
) -> BatchExpander | str:
    """Build a :class:`BatchExpander` when parity is provable, else say why not.

    Gates, each refusing with its own reason: the characteristic
    function admits everything and dominance is a no-op (nothing
    observes discarded children), elimination is U/DBAS or none (bare
    threshold compare / constant False), the bound has an incremental
    trivial/LB0/LB1 form (monotone, with the goal closed form), and
    branching is BFn or fixed-order (readiness masks fully describe the
    task set).
    """
    if not charf.admits_all:
        return f"characteristic function {charf.name} filters children"
    if not dominance.is_noop:
        return "dominance layer attached"
    if type(elim) not in (UDBASElimination, NoElimination):
        return f"elimination rule {elim.name} has no batch form"
    if type(prepared) not in (_PreparedBFn, _PreparedFixedOrder):
        return "branching has no readiness-mask form"
    if not bound.monotone:
        return f"{bound.name} is not monotone"
    inc = bound.make_incremental(problem)
    if type(inc) is _IncrementalTrivial:
        kind = 0
    elif type(inc) is _IncrementalLB0:
        kind = 1
    elif type(inc) is _IncrementalLB1:
        kind = 2
    else:
        return f"{bound.name} has no incremental form"
    return BatchExpander(problem, prepared, bound, elim, break_symmetry, kind)
