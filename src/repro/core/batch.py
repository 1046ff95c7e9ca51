"""Array engine: vectorized batch expansion over the state arena.

The batch path computes earliest starts, tail-based admission and the
LB0/LB1 fast-path bounds for *all* children of a vertex in single numpy
passes over the parent's arena row.  Placements whose bound needs a
real repair walk (a minority on the paper workloads) fall back to the
scalar incremental evaluator on exactly the inputs the fused path
(:mod:`repro.core.expand`) would hand it, so every float -- and
therefore every counter and sequence number -- matches the object
engine bit-for-bit.  The batch kernels are deliberately small, pure
functions of the numpy problem mirror so the Hypothesis suite can
differential-test each one against the scalar reference in isolation.

``BranchAndBound.solve`` no longer runs ``BatchExpander.expand``: the
batch tier was slower than the fused path, so a refused native solve
falls back to fused.  :func:`make_batch_expander` is the native
driver's gate and builds the arena the driver owns; ``expand`` and the
``batch_*`` kernels stay while ``perf/spans.py`` still wraps them.

This module is the engine's only numpy importer besides the arena and
the native driver, so the engine imports it only once the native tier
is still open.  :mod:`repro.core.expand` forwards its names.
"""

from __future__ import annotations

import math

import numpy as np

from ..model.compile import CompiledProblem
from .arena import ArenaProblem, ArenaState, StateArena
from .bounds import (
    LowerBound,
    _IncrementalLB0,
    _IncrementalLB1,
    _IncrementalTrivial,
)
from .branching import PreparedBranching, _PreparedBFn, _PreparedFixedOrder
from .dominance import DominanceChecker
from .elimination import EliminationRule, NoElimination, UDBASElimination
from .expand import PendingChild
from .feasibility import CharacteristicFunction
from .state import SearchState, root_state
from .vertex import Vertex

__all__ = [
    "BatchExpander",
    "make_batch_expander",
    "batch_admission",
    "batch_earliest_starts",
    "batch_lb_fast",
    "batch_lmin",
]


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
