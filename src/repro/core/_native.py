"""Native chunked search driver for the array engine (``--engine array``).

The numpy batch expander removes per-child bound recursions, but the
engine's Python loop still costs microseconds per explored vertex
(frontier heap ops, Vertex objects, counter updates).  This module
compiles — on first use, with the system C compiler, cached by source
digest — a small C kernel that owns the *whole* pop → expand → push
loop over the :class:`~repro.core.arena.StateArena` columns, returning
to Python only at chunk boundaries, incumbent improvements the caller
asked to hear about, arena/frontier growth, resource caps and branching
errors.

Parity contract
---------------

The kernel is a line-by-line transcription of the fused hot path
(`FusedExpander.expand`, the incremental LB0/LB1 evaluators, the
frontier disciplines and the engine loop's step ordering), compiled
with ``-ffp-contract=off`` and without ``-march=native`` so every float
expression performs exactly the IEEE-754 double operations the Python
code performs, in the same association order.  Sequence numbers, all
``SearchStats`` counters, the incumbent, the pruning threshold and the
exploration order are bit-identical to the object engine; the
equivalence sweep and the exhaustive oracle gate this per commit.

The driver engages for the configurations it replicates exactly
(uniform interconnect, trivial/LB0/LB1 bounds, BFn/fixed-order
branching, LIFO/FIFO/LLB/LLB-D selection, U-DBAS or no elimination, no
dominance/characteristic hooks, no per-vertex observers).  Stop tokens,
time/memory limits, checkpoints, resume, subtree roots, the bound
channel, the live monitor, the progress heartbeat and metrics all ride
the engine's :class:`~repro.core.boundary.Boundary`, which the driver
calls at ``ST_CHECK``.  When the engine refuses the driver it records
why in ``SearchStats.engine_fallback``.

Chunk protocol
--------------

``arena_drive`` runs until it must hand control back, reporting why in
``ctx.status``:

=================  ====================================================
``ST_DONE``        frontier exhausted — search complete
``ST_BOUNDSTOP``   best-first stop: popped bound met the threshold
``ST_CHECK``       chunk boundary (``explored >= check_at``): the popped
                   vertex is parked in ``pend_*``, unexpanded and not
                   yet counted as explored — the program point where
                   the Python loop services its boundary
``ST_INCUMBENT``   an improvement was fully handled (only when
                   ``report_incumbent`` is set)
``ST_MAXVERT``     generated-vertex cap reached (engine decides raise
                   vs truncate)
``ST_GROW_ARENA``  fewer than ``n*m`` free rows — grow and re-enter
``ST_GROW_FRONT``  frontier arrays full — grow and re-enter
``ST_ERR_NOT_READY`` fixed branching order violated; Python re-raises
                   the identical ConfigurationError
=================  ====================================================

Every return leaves the search state (including a parked pending
vertex) consistent; Python services it, refreshes the context and
re-enters, and a parked vertex is resumed and counted on re-entry.

The kernel cache is ``$REPRO_NATIVE_CACHE`` or
``<tmp>/repro-native-<uid>`` (created 0700).  A cache directory or
library not owned by the effective user, or writable by group/other,
is refused.  Set ``REPRO_NO_NATIVE=1`` to disable the kernel entirely
(the numpy path then serves ``--engine array``).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import os
import stat
import subprocess
import tempfile

import numpy as np

from .arena import ArenaState
from .boundary import NEVER
from .vertex import Vertex

__all__ = [
    "FrontierView",
    "NativeDriver",
    "load_error",
    "load_native",
    "native_available",
]


_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#include <math.h>

enum {
    ST_DONE = 0,
    ST_BOUNDSTOP = 1,
    ST_CHECK = 2,
    ST_MAXVERT = 3,
    ST_GROW_ARENA = 4,
    ST_GROW_FRONT = 5,
    ST_ERR_NOT_READY = 6,
    ST_INCUMBENT = 7
};

typedef struct {
    /* problem tables (read-only) */
    const double *wcet;
    const double *arrival;
    const double *deadline;
    const double *tail_lat;
    const double *tail;
    const int64_t *pred_off;
    const int64_t *pred_idx;
    const double *pred_size;
    const int64_t *succ_off;
    const int64_t *succ_idx;
    const int64_t *topo;
    const int64_t *topo_pos;
    const uint64_t *pred_mask;
    const uint64_t *srm;
    const int64_t *fixed_order;
    /* arena columns */
    uint64_t *a_sched;
    uint64_t *a_ready;
    int32_t *a_level;
    double *a_lat;
    double *a_lmin;
    int16_t *a_last_task;
    int16_t *a_last_proc;
    int8_t *a_proc;
    double *a_start;
    double *a_finish;
    double *a_avail;
    double *a_est;
    double *a_estart;
    int32_t *free_stack;
    /* frontier arrays */
    double *fr_lb;
    int64_t *fr_seq;
    int32_t *fr_slot;
    int32_t *fr_level;
    /* scratch */
    double *sc_est;
    double *sc_estart;
    double *cand_e;
    int64_t *cand_rank;
    double *floc;
    int64_t *procs_buf;
    int64_t *tasks_buf;
    double *ch_lb;
    int64_t *ch_seq;
    int32_t *ch_slot;
    int8_t *best_proc;
    double *best_start;
    /* doubles */
    double ud;
    double eps;
    double maxd;
    double inaccuracy;
    double threshold;
    double incumbent;
    double found_cost;
    double fr_threshold;
    double pend_lb;
    double exp_goal_cost;
    double exp_goal_s;
    double exp_goal_f;
    double parent_lmin;
    double lmin2;
    /* int64 config + counters */
    int64_t n;
    int64_t m;
    int64_t fr_cap;
    int64_t frontier_kind;   /* 0 LIFO, 1 FIFO, 2 LLB, 3 LLB-D */
    int64_t bound_kind;      /* 0 trivial, 1 LB0, 2 LB1 */
    int64_t child_order;     /* 0 generation, 1 best-last, 2 best-first */
    int64_t elim_none;
    int64_t stop_on_bound;
    int64_t break_symmetry;
    int64_t branch_fixed;
    int64_t seq;
    int64_t generated;
    int64_t explored;
    int64_t goals_evaluated;
    int64_t pruned_children;
    int64_t pruned_active;
    int64_t incumbent_updates;
    int64_t peak_active;
    int64_t max_vertices;
    int64_t fr_len;
    int64_t fr_head;
    int64_t fr_live;
    int64_t nfree;
    int64_t pend_valid;
    int64_t pend_slot;
    int64_t pend_seq;
    int64_t check_at;
    int64_t report_incumbent;
    int64_t best_found;
    int64_t status;
    int64_t err_slot;
    int64_t exp_goal_found;
    int64_t exp_goal_task;
    int64_t exp_goal_proc;
    int64_t nk;
    int64_t have_pend;
    int64_t cand_built;
    int64_t cand_n;
} ctx_t;

int64_t ctx_size(void) { return (int64_t)sizeof(ctx_t); }

static void slot_free(ctx_t *c, int64_t slot) {
    c->free_stack[c->nfree++] = (int32_t)slot;
}

/* ---------------------------------------------------------------- */
/* Frontier disciplines                                              */
/* ---------------------------------------------------------------- */

static int fr_less_i(const ctx_t *c, int64_t i, int64_t j) {
    double a = c->fr_lb[i], b = c->fr_lb[j];
    if (a != b) return a < b;
    if (c->frontier_kind == 3) {
        int32_t la = c->fr_level[i], lj = c->fr_level[j];
        if (la != lj) return la > lj;   /* deeper first */
    }
    return c->fr_seq[i] < c->fr_seq[j];
}

static void fr_swap(ctx_t *c, int64_t i, int64_t j) {
    double tl = c->fr_lb[i]; c->fr_lb[i] = c->fr_lb[j]; c->fr_lb[j] = tl;
    int64_t ts = c->fr_seq[i]; c->fr_seq[i] = c->fr_seq[j]; c->fr_seq[j] = ts;
    int32_t tt = c->fr_slot[i]; c->fr_slot[i] = c->fr_slot[j]; c->fr_slot[j] = tt;
    int32_t tv = c->fr_level[i]; c->fr_level[i] = c->fr_level[j]; c->fr_level[j] = tv;
}

static void heap_sift_down(ctx_t *c, int64_t i, int64_t len) {
    for (;;) {
        int64_t l = 2 * i + 1, r = l + 1, s = i;
        if (l < len && fr_less_i(c, l, s)) s = l;
        if (r < len && fr_less_i(c, r, s)) s = r;
        if (s == i) break;
        fr_swap(c, i, s);
        i = s;
    }
}

static void heap_sift_up(ctx_t *c, int64_t i) {
    while (i > 0) {
        int64_t p = (i - 1) / 2;
        if (fr_less_i(c, i, p)) { fr_swap(c, i, p); i = p; }
        else break;
    }
}

static void fr_push(ctx_t *c, double lb, int64_t sq, int64_t slot, int64_t level) {
    if (c->frontier_kind < 2) {
        int64_t i = c->fr_len++;
        c->fr_lb[i] = lb; c->fr_seq[i] = sq;
        c->fr_slot[i] = (int32_t)slot; c->fr_level[i] = (int32_t)level;
        return;
    }
    /* LLB: mirror the Python frontier's silent refusal of entries at
       or above the last pruned threshold. */
    if (lb >= c->fr_threshold) { slot_free(c, slot); return; }
    int64_t i = c->fr_len++;
    c->fr_lb[i] = lb; c->fr_seq[i] = sq;
    c->fr_slot[i] = (int32_t)slot; c->fr_level[i] = (int32_t)level;
    c->fr_live++;
    heap_sift_up(c, i);
}

static int fr_pop(ctx_t *c, int64_t *slot, double *lb, int64_t *sq) {
    if (c->frontier_kind == 0) {          /* LIFO: pop the tail */
        if (c->fr_len == 0) return 0;
        c->fr_len--;
        *lb = c->fr_lb[c->fr_len]; *sq = c->fr_seq[c->fr_len];
        *slot = c->fr_slot[c->fr_len];
        return 1;
    }
    if (c->frontier_kind == 1) {          /* FIFO: pop the head */
        if (c->fr_head >= c->fr_len) return 0;
        *lb = c->fr_lb[c->fr_head]; *sq = c->fr_seq[c->fr_head];
        *slot = c->fr_slot[c->fr_head];
        c->fr_head++;
        return 1;
    }
    while (c->fr_len > 0) {               /* LLB heap, lazy deletion */
        double l = c->fr_lb[0]; int64_t q = c->fr_seq[0];
        int32_t sl = c->fr_slot[0];
        c->fr_len--;
        if (c->fr_len > 0) {
            c->fr_lb[0] = c->fr_lb[c->fr_len];
            c->fr_seq[0] = c->fr_seq[c->fr_len];
            c->fr_slot[0] = c->fr_slot[c->fr_len];
            c->fr_level[0] = c->fr_level[c->fr_len];
            heap_sift_down(c, 0, c->fr_len);
        }
        if (l >= c->fr_threshold) {       /* stale: already counted */
            slot_free(c, sl);
            continue;
        }
        c->fr_live--;
        *lb = l; *sq = q; *slot = sl;
        return 1;
    }
    return 0;
}

static int64_t fr_prune_above(ctx_t *c, double t) {
    if (c->frontier_kind < 2) {
        int64_t cnt = 0, w = 0;
        for (int64_t i = c->fr_head; i < c->fr_len; i++) {
            if (c->fr_lb[i] < t) {
                c->fr_lb[w] = c->fr_lb[i]; c->fr_seq[w] = c->fr_seq[i];
                c->fr_slot[w] = c->fr_slot[i]; c->fr_level[w] = c->fr_level[i];
                w++;
            } else { cnt++; slot_free(c, c->fr_slot[i]); }
        }
        c->fr_head = 0; c->fr_len = w;
        return cnt;
    }
    double old = c->fr_threshold;
    int64_t cnt = 0;
    if (t < old) {
        for (int64_t i = 0; i < c->fr_len; i++) {
            double l = c->fr_lb[i];
            if (l >= t && l < old) cnt++;
        }
        c->fr_live -= cnt;
        c->fr_threshold = t;
        if (cnt && c->fr_live < c->fr_len / 2) {
            int64_t w = 0;
            for (int64_t i = 0; i < c->fr_len; i++) {
                if (c->fr_lb[i] < t) {
                    c->fr_lb[w] = c->fr_lb[i]; c->fr_seq[w] = c->fr_seq[i];
                    c->fr_slot[w] = c->fr_slot[i]; c->fr_level[w] = c->fr_level[i];
                    w++;
                } else slot_free(c, c->fr_slot[i]);
            }
            c->fr_len = w;
            for (int64_t i = w / 2 - 1; i >= 0; i--) heap_sift_down(c, i, w);
        }
    }
    return cnt;
}

static int64_t fr_active(const ctx_t *c) {
    return c->frontier_kind < 2 ? c->fr_len - c->fr_head : c->fr_live;
}

/* ---------------------------------------------------------------- */
/* Incremental bounds (verbatim transcriptions of bounds.py)         */
/* ---------------------------------------------------------------- */

static void build_candidates(ctx_t *c, const double *pestart, uint64_t psched) {
    double cap = c->lmin2;
    int64_t cn = 0;
    for (int64_t i = 0; i < c->n; i++) {
        if (pestart[i] < cap && !((psched >> i) & 1)) {
            c->cand_e[cn] = pestart[i];
            c->cand_rank[cn] = c->topo_pos[i];
            cn++;
        }
    }
    c->cand_n = cn;
    c->cand_built = 1;
}

/* Child bound for LB0 (bound_kind 1) / LB1 (bound_kind 2).
   *fast_commit: 1 -> child vectors are parent's with estart[t] = f;
                 0 -> child vectors are in sc_est/sc_estart. */
static double inc_child_c(ctx_t *c, const double *pest, const double *pestart,
                          uint64_t psched, double parent_lb, int64_t t, double f,
                          uint64_t smask, double lmin, int lchanged,
                          int *fast_commit) {
    const int64_t n = c->n;
    const int lb1 = (c->bound_kind == 2);
    double old = pest[t];
    if (f == old) {
        int fast_ok;
        if (!lb1) fast_ok = 1;
        else {
            fast_ok = !lchanged;
            if (!fast_ok && c->have_pend) {
                if (!c->cand_built) build_candidates(c, pestart, psched);
                fast_ok = 1;
                for (int64_t i = 0; i < c->cand_n; i++) {
                    if (c->cand_e[i] < lmin) { fast_ok = 0; break; }
                }
            }
        }
        if (fast_ok) {
            *fast_commit = 1;
            double lb = f - c->deadline[t];
            return lb > parent_lb ? lb : parent_lb;
        }
    }
    *fast_commit = 0;
    memcpy(c->sc_est, pest, (size_t)n * 8);
    memcpy(c->sc_estart, pestart, (size_t)n * 8);
    double *est = c->sc_est;
    double *estart = c->sc_estart;
    est[t] = f;
    estart[t] = f;
    double lb = f - c->deadline[t];
    if (lb < parent_lb) lb = parent_lb;
    uint64_t dirty = (f == old) ? 0 : c->srm[t];
    if (lb1 && lchanged) {
        /* begin() always ran for this batch: lmin moved only when the
           parent minimum was unique. */
        if (!c->cand_built) build_candidates(c, pestart, psched);
        for (int64_t i = 0; i < c->cand_n; i++) {
            if (c->cand_e[i] < lmin) dirty |= 1ull << c->cand_rank[i];
        }
    }
    while (dirty) {
        int64_t r = (int64_t)__builtin_ctzll(dirty);
        dirty &= dirty - 1;
        int64_t i = c->topo[r];
        if ((smask >> i) & 1) continue;
        double e;
        if (lb1) { double a = c->arrival[i]; e = a > lmin ? a : lmin; }
        else e = c->arrival[i];
        for (int64_t k = c->pred_off[i]; k < c->pred_off[i + 1]; k++) {
            double fj = est[c->pred_idx[k]];
            if (fj > e) e = fj;
        }
        estart[i] = e;
        double ne = e + c->wcet[i];
        if (ne != est[i]) {
            est[i] = ne;
            dirty |= c->srm[i];
            double lat = ne - c->deadline[i];
            if (lat > lb) lb = lat;
        }
    }
    return lb;
}

/* ---------------------------------------------------------------- */
/* Expansion (verbatim transcription of FusedExpander.expand)        */
/* ---------------------------------------------------------------- */

static int64_t expand_vertex(ctx_t *c, int64_t ps, double parent_lb) {
    const int64_t n = c->n, m = c->m;
    const uint64_t ready = c->a_ready[ps];
    const uint64_t sched = c->a_sched[ps];
    const int64_t level = c->a_level[ps];
    const double plat = c->a_lat[ps];
    const double *pav = c->a_avail + ps * m;
    const double *pfin = c->a_finish + ps * n;
    const double *pstart = c->a_start + ps * n;
    const int8_t *ppo = c->a_proc + ps * n;
    const double *pest = c->a_est ? c->a_est + ps * n : 0;
    const double *pestart = c->a_estart ? c->a_estart + ps * n : 0;

    c->nk = 0;
    c->exp_goal_found = 0;

    int64_t nt = 0;
    if (c->branch_fixed) {
        int64_t t = c->fixed_order[level];
        if (!((ready >> t) & 1)) return ST_ERR_NOT_READY;
        c->tasks_buf[nt++] = t;
    } else {
        uint64_t r = ready;
        while (r) {
            c->tasks_buf[nt++] = (int64_t)__builtin_ctzll(r);
            r &= r - 1;
        }
    }

    int64_t np = 0;
    if (c->break_symmetry) {
        int seen = 0;
        for (int64_t q = 0; q < m; q++) {
            if (pav[q] == 0.0) {
                if (seen) continue;
                seen = 1;
            }
            c->procs_buf[np++] = q;
        }
    } else {
        for (int64_t q = 0; q < m; q++) c->procs_buf[np++] = q;
    }

    const int uses_lmin = (c->bound_kind == 2);
    double parent_lmin = 0.0, lmin2 = INFINITY;
    int64_t nmin = 0;
    if (uses_lmin) {
        parent_lmin = c->a_lmin[ps];
        for (int64_t q = 0; q < m; q++) {
            double a = pav[q];
            if (a == parent_lmin) nmin++;
            else if (a < lmin2) lmin2 = a;
        }
    }
    c->have_pend = uses_lmin && nmin == 1;
    c->cand_built = 0;
    c->parent_lmin = parent_lmin;
    c->lmin2 = lmin2;

    const int goal_children = (level == n - 1);
    const int64_t clevel = level + 1;
    const double eps = c->eps, maxd = c->maxd, ud = c->ud;
    const double threshold = c->threshold;
    double goal_best = INFINITY;

    if (!goal_children) c->generated += nt * np;

    for (int64_t ti = 0; ti < nt; ti++) {
        const int64_t t = c->tasks_buf[ti];
        const double wt = c->wcet[t];
        const double dl = c->deadline[t];
        const double arr = c->arrival[t];
        const double tl = c->tail_lat[t];
        const double tb = c->tail[t];
        const uint64_t bit = 1ull << t;
        const uint64_t cmask = sched | bit;

        /* one pass over predecessors: local-finish per host plus the
           top-two remote arrivals by host (same update order as the
           fused Python loop, so ties resolve identically). */
        for (int64_t q = 0; q < m; q++) c->floc[q] = -INFINITY;
        double r1 = -INFINITY, r2 = -INFINITY;
        int64_t h1 = -1;
        for (int64_t k = c->pred_off[t]; k < c->pred_off[t + 1]; k++) {
            int64_t j = c->pred_idx[k];
            double fj = pfin[j];
            int64_t pj = ppo[j];
            if (fj > c->floc[pj]) c->floc[pj] = fj;
            double rj = fj + c->pred_size[k] * ud;
            if (pj == h1) {
                if (rj > r1) r1 = rj;
            } else if (rj > r1) {
                r2 = r1; r1 = rj; h1 = pj;
            } else if (rj > r2) {
                r2 = rj;
            }
        }

        uint64_t cready_t = 0;
        if (!goal_children) {
            cready_t = ready & ~bit;
            for (int64_t k = c->succ_off[t]; k < c->succ_off[t + 1]; k++) {
                int64_t j = c->succ_idx[k];
                if (!((cmask >> j) & 1) && (c->pred_mask[j] & ~cmask) == 0)
                    cready_t |= 1ull << j;
            }
        }

        for (int64_t qi = 0; qi < np; qi++) {
            const int64_t q = c->procs_buf[qi];
            const double ap = pav[q];
            double s = arr;
            if (ap > s) s = ap;
            double fl = c->floc[q];
            if (fl > s) s = fl;
            double rmax = (h1 == q) ? r2 : r1;
            if (rmax > s) s = rmax;
            double f = s + wt;

            if (goal_children) {
                c->generated++;
                c->goals_evaluated++;
                /* At the goal level the incremental child bound is the
                   closed form max(parent_lb, f - D): the walk is a
                   proven no-op (all successors scheduled) for the
                   trivial/LB0/LB1 evaluators the driver supports. */
                double lb = f - dl;
                if (lb < parent_lb) lb = parent_lb;
                if (lb < goal_best) {
                    goal_best = lb;
                    c->exp_goal_found = 1;
                    c->exp_goal_cost = lb;
                    c->exp_goal_task = t;
                    c->exp_goal_proc = q;
                    c->exp_goal_s = s;
                    c->exp_goal_f = f;
                }
                continue;
            }

            if (!c->elim_none) {
                double floor = f - dl;
                if (floor < parent_lb) floor = parent_lb;
                if (floor >= threshold) { c->pruned_children++; c->seq++; continue; }
                if (c->bound_kind != 0) {
                    double as = s >= 0.0 ? s : -s;
                    double press = s + tl - eps * (as + tb + maxd);
                    if (press >= threshold) { c->pruned_children++; c->seq++; continue; }
                }
            }

            double lmin = parent_lmin;
            int lchanged = 0;
            if (uses_lmin) {
                if (ap != parent_lmin || nmin > 1) {
                    lmin = parent_lmin;
                    lchanged = 0;
                } else {
                    lmin = lmin2 < f ? lmin2 : f;
                    lchanged = (lmin != parent_lmin);
                }
            }
            double clb;
            int fast_commit = 0;
            if (c->bound_kind == 0) {
                clb = f - dl;
                if (clb < parent_lb) clb = parent_lb;
            } else {
                clb = inc_child_c(c, pest, pestart, sched, parent_lb, t, f,
                                  cmask, lmin, lchanged, &fast_commit);
            }
            if (!c->elim_none && clb >= threshold) { c->pruned_children++; c->seq++; continue; }

            /* keep: materialize the child row */
            int64_t cs = (int64_t)c->free_stack[--c->nfree];
            c->a_sched[cs] = cmask;
            c->a_ready[cs] = cready_t;
            c->a_level[cs] = (int32_t)clevel;
            double lat = f - dl;
            if (lat < plat) lat = plat;
            c->a_lat[cs] = lat;
            c->a_last_task[cs] = (int16_t)t;
            c->a_last_proc[cs] = (int16_t)q;
            memcpy(c->a_proc + cs * n, ppo, (size_t)n);
            memcpy(c->a_start + cs * n, pstart, (size_t)n * 8);
            memcpy(c->a_finish + cs * n, pfin, (size_t)n * 8);
            memcpy(c->a_avail + cs * m, pav, (size_t)m * 8);
            c->a_proc[cs * n + t] = (int8_t)q;
            c->a_start[cs * n + t] = s;
            c->a_finish[cs * n + t] = f;
            c->a_avail[cs * m + q] = f;
            if (uses_lmin) c->a_lmin[cs] = lmin;
            else {
                const double *cav = c->a_avail + cs * m;
                double mn = cav[0];
                for (int64_t q2 = 1; q2 < m; q2++) if (cav[q2] < mn) mn = cav[q2];
                c->a_lmin[cs] = mn;
            }
            if (c->bound_kind != 0) {
                double *ce = c->a_est + cs * n;
                double *cse = c->a_estart + cs * n;
                if (fast_commit) {
                    memcpy(ce, pest, (size_t)n * 8);
                    memcpy(cse, pestart, (size_t)n * 8);
                    cse[t] = f;
                } else {
                    memcpy(ce, c->sc_est, (size_t)n * 8);
                    memcpy(cse, c->sc_estart, (size_t)n * 8);
                }
            }
            c->ch_lb[c->nk] = clb;
            c->ch_seq[c->nk] = c->seq;
            c->ch_slot[c->nk] = (int32_t)cs;
            c->nk++;
            c->seq++;
        }
    }
    if (goal_children && c->exp_goal_found) c->exp_goal_cost = goal_best;
    return -1;
}

/* ---------------------------------------------------------------- */
/* The chunked engine loop                                           */
/* ---------------------------------------------------------------- */

void arena_drive(ctx_t *c) {
    const int64_t worst = c->n * c->m;
    for (;;) {
        /* capacity preflight — before the pop AND before resuming a
           parked pending vertex, so growth returns are always clean. */
        if (c->nfree < worst) { c->status = ST_GROW_ARENA; return; }
        if (c->fr_len + worst + 1 > c->fr_cap) {
            if (c->frontier_kind == 1 && c->fr_head > 0) {
                int64_t live = c->fr_len - c->fr_head;
                memmove(c->fr_lb, c->fr_lb + c->fr_head, (size_t)live * 8);
                memmove(c->fr_seq, c->fr_seq + c->fr_head, (size_t)live * 8);
                memmove(c->fr_slot, c->fr_slot + c->fr_head, (size_t)live * 4);
                memmove(c->fr_level, c->fr_level + c->fr_head, (size_t)live * 4);
                c->fr_head = 0;
                c->fr_len = live;
            }
            if (c->fr_len + worst + 1 > c->fr_cap) {
                c->status = ST_GROW_FRONT;
                return;
            }
        }

        int64_t vslot;
        double vlb;
        int64_t vseq;
        if (c->pend_valid) {
            vslot = c->pend_slot; vlb = c->pend_lb; vseq = c->pend_seq;
            c->pend_valid = 0;
        } else {
            if (!fr_pop(c, &vslot, &vlb, &vseq)) { c->status = ST_DONE; return; }
            if (!c->elim_none && vlb >= c->threshold) {
                if (c->stop_on_bound) {
                    slot_free(c, vslot);
                    c->status = ST_BOUNDSTOP;
                    return;
                }
                c->pruned_active++;
                slot_free(c, vslot);
                continue;
            }
            /* chunk boundary: the popped vertex is parked uncounted and
               unexpanded, the program point the Python loop services */
            if (c->explored >= c->check_at) {
                c->pend_valid = 1;
                c->pend_slot = vslot; c->pend_lb = vlb; c->pend_seq = vseq;
                c->status = ST_CHECK;
                return;
            }
        }
        c->explored++;

        int64_t rc = expand_vertex(c, vslot, vlb);
        if (rc >= 0) {
            /* leave the vertex live: Python materializes it to raise */
            c->err_slot = vslot;
            c->status = rc;
            return;
        }

        int tightened = 0;
        if (c->exp_goal_found && c->exp_goal_cost < c->incumbent) {
            tightened = 1;
            c->incumbent = c->exp_goal_cost;
            c->found_cost = c->exp_goal_cost;
            c->incumbent_updates++;
            c->best_found = 1;
            /* materialize the winning schedule from the parent row +
               the goal placement, before the parent row is recycled */
            memcpy(c->best_proc, c->a_proc + vslot * c->n, (size_t)c->n);
            memcpy(c->best_start, c->a_start + vslot * c->n, (size_t)c->n * 8);
            c->best_proc[c->exp_goal_task] = (int8_t)c->exp_goal_proc;
            c->best_start[c->exp_goal_task] = c->exp_goal_s;
            c->threshold = (c->inaccuracy == 0.0 || isinf(c->incumbent))
                ? c->incumbent
                : c->incumbent - c->inaccuracy * fabs(c->incumbent);
            if (!c->elim_none)
                c->pruned_active += fr_prune_above(c, c->threshold);
        }
        slot_free(c, vslot);

        int64_t nk = c->nk;
        if (tightened && !c->elim_none) {
            /* goal tightened the threshold mid-expansion: re-filter the
               surviving children exactly as the engine's DB half does */
            int64_t w = 0;
            for (int64_t i = 0; i < nk; i++) {
                if (c->ch_lb[i] >= c->threshold) {
                    c->pruned_children++;
                    slot_free(c, c->ch_slot[i]);
                } else {
                    c->ch_lb[w] = c->ch_lb[i];
                    c->ch_seq[w] = c->ch_seq[i];
                    c->ch_slot[w] = c->ch_slot[i];
                    w++;
                }
            }
            nk = w;
        }

        if (c->child_order && nk > 1) {
            /* stable insertion sort by bound (strict shifts keep equal
               bounds in generation order, matching Python's sort) */
            for (int64_t i = 1; i < nk; i++) {
                double lb = c->ch_lb[i];
                int64_t sq = c->ch_seq[i];
                int32_t sl = c->ch_slot[i];
                int64_t j = i - 1;
                if (c->child_order == 1) {
                    while (j >= 0 && c->ch_lb[j] < lb) {
                        c->ch_lb[j + 1] = c->ch_lb[j];
                        c->ch_seq[j + 1] = c->ch_seq[j];
                        c->ch_slot[j + 1] = c->ch_slot[j];
                        j--;
                    }
                } else {
                    while (j >= 0 && c->ch_lb[j] > lb) {
                        c->ch_lb[j + 1] = c->ch_lb[j];
                        c->ch_seq[j + 1] = c->ch_seq[j];
                        c->ch_slot[j + 1] = c->ch_slot[j];
                        j--;
                    }
                }
                c->ch_lb[j + 1] = lb;
                c->ch_seq[j + 1] = sq;
                c->ch_slot[j + 1] = sl;
            }
        }

        int64_t clevel = 0;
        if (nk) clevel = c->a_level[c->ch_slot[0]];
        for (int64_t i = 0; i < nk; i++)
            fr_push(c, c->ch_lb[i], c->ch_seq[i], c->ch_slot[i], clevel);

        int64_t active = fr_active(c);
        if (active > c->peak_active) c->peak_active = active;

        if (c->generated >= c->max_vertices) { c->status = ST_MAXVERT; return; }
        if (tightened && c->report_incumbent) { c->status = ST_INCUMBENT; return; }
    }
}

int64_t arena_prune_above(ctx_t *c, double t) { return fr_prune_above(c, t); }
"""


# Python-side mirror of ctx_t.  Layout is trivially sequential: every
# scalar is 8 bytes and pointers come first; `ctx_size()` is checked
# against ctypes.sizeof at load time to catch any drift.
_PTR_FIELDS = [
    "wcet", "arrival", "deadline", "tail_lat", "tail",
    "pred_off", "pred_idx", "pred_size", "succ_off", "succ_idx",
    "topo", "topo_pos", "pred_mask", "srm", "fixed_order",
    "a_sched", "a_ready", "a_level", "a_lat", "a_lmin",
    "a_last_task", "a_last_proc", "a_proc", "a_start", "a_finish",
    "a_avail", "a_est", "a_estart", "free_stack",
    "fr_lb", "fr_seq", "fr_slot", "fr_level",
    "sc_est", "sc_estart", "cand_e", "cand_rank", "floc",
    "procs_buf", "tasks_buf", "ch_lb", "ch_seq", "ch_slot",
    "best_proc", "best_start",
]
_F64_FIELDS = [
    "ud", "eps", "maxd", "inaccuracy", "threshold", "incumbent",
    "found_cost", "fr_threshold", "pend_lb", "exp_goal_cost",
    "exp_goal_s", "exp_goal_f", "parent_lmin", "lmin2",
]
_I64_FIELDS = [
    "n", "m", "fr_cap", "frontier_kind", "bound_kind", "child_order",
    "elim_none", "stop_on_bound", "break_symmetry", "branch_fixed",
    "seq", "generated", "explored", "goals_evaluated", "pruned_children",
    "pruned_active", "incumbent_updates", "peak_active", "max_vertices",
    "fr_len", "fr_head", "fr_live", "nfree", "pend_valid", "pend_slot",
    "pend_seq", "check_at", "report_incumbent", "best_found", "status",
    "err_slot", "exp_goal_found", "exp_goal_task", "exp_goal_proc", "nk",
    "have_pend", "cand_built", "cand_n",
]


class _Ctx(ctypes.Structure):
    _fields_ = (
        [(name, ctypes.c_void_p) for name in _PTR_FIELDS]
        + [(name, ctypes.c_double) for name in _F64_FIELDS]
        + [(name, ctypes.c_int64) for name in _I64_FIELDS]
    )


ST_DONE = 0
ST_BOUNDSTOP = 1
ST_CHECK = 2
ST_MAXVERT = 3
ST_GROW_ARENA = 4
ST_GROW_FRONT = 5
ST_ERR_NOT_READY = 6
ST_INCUMBENT = 7

_LIB = None
_LIB_TRIED = False
#: Why the last :func:`load_native` returned None (None after success).
_LIB_ERROR: str | None = None


class NativeUnavailable(Exception):
    """The kernel cannot be built or loaded; the message says why."""


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    return os.path.join(tempfile.gettempdir(), f"repro-native-{os.geteuid()}")


def library_name() -> str:
    """File name of the kernel for this source: ``repro_arena_<digest>.so``."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    return f"repro_arena_{digest}.so"


def _check_private(path: str, what: str, is_kind) -> None:
    """Refuse ``path`` unless this user owns it and nobody else can write it.

    A shared temp directory lets any local user create the cache first;
    loading a library planted there would run their code in this process.
    ``path`` itself must not be a symlink (``lstat``): a link the other
    user owns could point at one of ours and be swapped after the check.
    ``is_kind`` is ``stat.S_ISDIR`` or ``stat.S_ISREG``.
    """
    st = os.lstat(path)
    if not is_kind(st.st_mode):
        kind = "a symlink" if stat.S_ISLNK(st.st_mode) else "of the wrong type"
        raise NativeUnavailable(f"{what} {path} is {kind}")
    if st.st_uid != os.geteuid():
        raise NativeUnavailable(
            f"{what} {path} is owned by uid {st.st_uid}, not {os.geteuid()}"
        )
    if st.st_mode & 0o022:
        raise NativeUnavailable(
            f"{what} {path} is group/other-writable "
            f"(mode {stat.S_IMODE(st.st_mode):o})"
        )


def _open(path: str):
    lib = ctypes.CDLL(path)
    lib.ctx_size.restype = ctypes.c_int64
    lib.ctx_size.argtypes = []
    if lib.ctx_size() != ctypes.sizeof(_Ctx):
        return None
    lib.arena_drive.restype = None
    lib.arena_drive.argtypes = [ctypes.POINTER(_Ctx)]
    lib.arena_prune_above.restype = ctypes.c_int64
    lib.arena_prune_above.argtypes = [ctypes.POINTER(_Ctx), ctypes.c_double]
    return lib


def _build(cache: str, lib_path: str):
    """Compile into a private temp name, load it from there, then publish.

    Loading before the rename means a rebuilt library is never confused
    with an already-mapped one of the same name, and a concurrent
    process only ever sees a complete file at ``lib_path``.
    """
    src_path = lib_path[: -len(".so")] + ".c"
    tag = f".tmp{os.getpid()}"
    with open(src_path + tag, "w") as fh:
        fh.write(_C_SOURCE)
    os.replace(src_path + tag, src_path)
    tmp = lib_path + tag
    # -ffp-contract=off and no -march: no FMA contraction, so every
    # float expression rounds exactly like CPython's.
    try:
        subprocess.run(
            ["cc", "-O2", "-fPIC", "-shared", "-ffp-contract=off",
             "-o", tmp, src_path],
            check=True,
            capture_output=True,
            timeout=120,
        )
    except FileNotFoundError as exc:
        raise NativeUnavailable("no C compiler (cc) on PATH") from exc
    except subprocess.CalledProcessError as exc:
        detail = exc.stderr.decode(errors="replace").strip().splitlines()
        raise NativeUnavailable(
            f"cc failed: {detail[0] if detail else exc.returncode}"
        ) from exc
    try:
        os.chmod(tmp, 0o755)
        lib = _open(tmp)
        if lib is None:
            raise NativeUnavailable("freshly built kernel has a stale layout")
        os.replace(tmp, lib_path)
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
    return lib


def _load():
    if os.environ.get("REPRO_NO_NATIVE"):
        raise NativeUnavailable("disabled by REPRO_NO_NATIVE")
    cache = _cache_dir()
    os.makedirs(cache, mode=0o700, exist_ok=True)
    _check_private(cache, "cache directory", stat.S_ISDIR)
    lib_path = os.path.join(cache, library_name())
    if os.path.lexists(lib_path):
        _check_private(lib_path, "kernel library", stat.S_ISREG)
        lib = _open(lib_path)
        if lib is not None:
            return lib
        # A library under this source's digest with another layout is
        # damaged or foreign: rebuild it rather than give up.
    return _build(cache, lib_path)


def load_native():
    """Compile (once, cached by source hash) and load the kernel.

    Returns the loaded CDLL, or ``None`` when the kernel is disabled
    (``REPRO_NO_NATIVE=1``), no C compiler is available, the cache
    directory or library is not private to this user, or the build or
    layout check fails.  :func:`load_error` then says which; the engine
    records it as ``SearchStats.engine_fallback``.
    """
    global _LIB, _LIB_TRIED, _LIB_ERROR
    if _LIB_TRIED:
        return _LIB
    _LIB_TRIED = True
    try:
        _LIB = _load()
        _LIB_ERROR = None
    except (NativeUnavailable, OSError, subprocess.SubprocessError) as exc:
        _LIB = None
        _LIB_ERROR = str(exc) or type(exc).__name__
    return _LIB


def load_error() -> str | None:
    """Why the kernel is unavailable (None when it loaded)."""
    if load_native() is not None:
        return None
    return _LIB_ERROR or "not loaded"


def native_available() -> bool:
    return load_native() is not None


def _ptr(arr) -> int:
    return 0 if arr is None else arr.ctypes.data


class NativeDriver:
    """Owns one C-driven search: context, frontier arrays, scratch.

    The engine seeds it with the already-initialized search state
    (frontier export, counters, incumbent/threshold), then loops on
    :meth:`step`, handling the non-``DONE`` statuses exactly as the
    Python loop would at the same program points.  ``check_at`` is the
    explored count at which the next popped vertex parks for a
    ``ST_CHECK`` boundary (``NEVER`` when nothing needs servicing);
    ``report_incumbent`` makes every improvement return ``ST_INCUMBENT``
    once its expansion is complete.
    """

    def __init__(
        self,
        arena,
        ap,
        *,
        frontier_kind: int,
        bound_kind: int,
        child_order: int,
        elim_none: bool,
        stop_on_bound: bool,
        break_symmetry: bool,
        fixed_order=None,
        entries,
        seq: int,
        threshold: float,
        incumbent: float,
        found_cost: float,
        inaccuracy: float,
        max_vertices: float,
        stats,
        report_incumbent: bool = False,
    ) -> None:
        self.arena = arena
        self.ap = ap
        self.lib = load_native()
        if self.lib is None:
            raise NativeUnavailable(load_error())
        n, m = ap.n, ap.m
        nm = n * m
        self._fixed = (
            np.asarray(fixed_order, dtype=np.int64)
            if fixed_order is not None
            else None
        )
        # Scratch (driver-owned)
        self._sc_est = np.zeros(n, dtype=np.float64)
        self._sc_estart = np.zeros(n, dtype=np.float64)
        self._cand_e = np.zeros(n, dtype=np.float64)
        self._cand_rank = np.zeros(n, dtype=np.int64)
        self._floc = np.zeros(m, dtype=np.float64)
        self._procs_buf = np.zeros(m, dtype=np.int64)
        self._tasks_buf = np.zeros(max(n, 1), dtype=np.int64)
        self._ch_lb = np.zeros(nm, dtype=np.float64)
        self._ch_seq = np.zeros(nm, dtype=np.int64)
        self._ch_slot = np.zeros(nm, dtype=np.int32)
        self._best_proc = np.zeros(n, dtype=np.int8)
        self._best_start = np.zeros(n, dtype=np.float64)
        self._best_key = -1
        self._best = None
        # Frontier arrays
        fr_cap = max(4096, 4 * (nm + 2), len(entries) + nm + 2)
        self._fr_lb = np.zeros(fr_cap, dtype=np.float64)
        self._fr_seq = np.zeros(fr_cap, dtype=np.int64)
        self._fr_slot = np.zeros(fr_cap, dtype=np.int32)
        self._fr_level = np.zeros(fr_cap, dtype=np.int32)
        self._fr_cap = fr_cap

        ctx = self.ctx = _Ctx()
        ctx.n = n
        ctx.m = m
        ctx.frontier_kind = frontier_kind
        ctx.bound_kind = bound_kind
        ctx.child_order = child_order
        ctx.elim_none = int(elim_none)
        ctx.stop_on_bound = int(stop_on_bound)
        ctx.break_symmetry = int(break_symmetry)
        ctx.branch_fixed = int(self._fixed is not None)
        ctx.ud = float(ap.uniform) if ap.uniform is not None else 0.0
        ctx.eps = ap.eps
        ctx.maxd = ap.maxabs_deadline
        ctx.inaccuracy = inaccuracy
        ctx.threshold = threshold
        ctx.incumbent = incumbent
        ctx.found_cost = found_cost
        # A fresh Python frontier's internal prune threshold is +inf
        # until the first active-set sweep stamps it.
        ctx.fr_threshold = math.inf
        ctx.seq = seq
        ctx.generated = stats.generated
        ctx.explored = stats.explored
        ctx.goals_evaluated = stats.goals_evaluated
        ctx.pruned_children = stats.pruned_children
        ctx.pruned_active = stats.pruned_active
        ctx.incumbent_updates = stats.incumbent_updates
        ctx.peak_active = stats.peak_active
        ctx.max_vertices = (
            (1 << 62) if math.isinf(max_vertices) else int(max_vertices)
        )
        ctx.check_at = NEVER
        ctx.report_incumbent = int(report_incumbent)
        ctx.pend_valid = 0
        ctx.best_found = 0

        # Seed the frontier.  `entries` is the Python frontier's export
        # (pop order): a LIFO stack popping from the tail stores it
        # reversed; FIFO stores it as-is; for the LLB heaps a key-sorted
        # array is already a valid binary min-heap, and any valid heap
        # yields the same pop order because keys are unique.
        if frontier_kind == 0:
            entries = list(reversed(entries))
        for i, (lb, sq, slot, level) in enumerate(entries):
            self._fr_lb[i] = lb
            self._fr_seq[i] = sq
            self._fr_slot[i] = slot
            self._fr_level[i] = level
        ctx.fr_len = len(entries)
        ctx.fr_head = 0
        ctx.fr_live = len(entries)
        self._bind()

    # ------------------------------------------------------------------

    def _bind(self) -> None:
        """(Re)point the context at the current numpy buffers."""
        ap, arena, ctx = self.ap, self.arena, self.ctx
        ctx.wcet = _ptr(ap.wcet)
        ctx.arrival = _ptr(ap.arrival)
        ctx.deadline = _ptr(ap.deadline)
        ctx.tail_lat = _ptr(ap.tail_lateness)
        ctx.tail = _ptr(ap.tail)
        ctx.pred_off = _ptr(ap.pred_off)
        ctx.pred_idx = _ptr(ap.pred_idx)
        ctx.pred_size = _ptr(ap.pred_size)
        ctx.succ_off = _ptr(ap.succ_off)
        ctx.succ_idx = _ptr(ap.succ_idx)
        ctx.topo = _ptr(ap.topo)
        ctx.topo_pos = _ptr(ap.topo_pos)
        ctx.pred_mask = _ptr(ap.pred_mask)
        ctx.srm = _ptr(ap.succ_rank_mask)
        ctx.fixed_order = _ptr(self._fixed)
        ctx.a_sched = _ptr(arena.sched)
        ctx.a_ready = _ptr(arena.ready)
        ctx.a_level = _ptr(arena.level)
        ctx.a_lat = _ptr(arena.lateness)
        ctx.a_lmin = _ptr(arena.lmin)
        ctx.a_last_task = _ptr(arena.last_task)
        ctx.a_last_proc = _ptr(arena.last_proc)
        ctx.a_proc = _ptr(arena.proc_of)
        ctx.a_start = _ptr(arena.start)
        ctx.a_finish = _ptr(arena.finish)
        ctx.a_avail = _ptr(arena.avail)
        ctx.a_est = _ptr(arena.est)
        ctx.a_estart = _ptr(arena.estart)
        ctx.free_stack = _ptr(arena.free_stack)
        ctx.nfree = arena.nfree
        ctx.fr_lb = _ptr(self._fr_lb)
        ctx.fr_seq = _ptr(self._fr_seq)
        ctx.fr_slot = _ptr(self._fr_slot)
        ctx.fr_level = _ptr(self._fr_level)
        ctx.fr_cap = self._fr_cap
        ctx.sc_est = _ptr(self._sc_est)
        ctx.sc_estart = _ptr(self._sc_estart)
        ctx.cand_e = _ptr(self._cand_e)
        ctx.cand_rank = _ptr(self._cand_rank)
        ctx.floc = _ptr(self._floc)
        ctx.procs_buf = _ptr(self._procs_buf)
        ctx.tasks_buf = _ptr(self._tasks_buf)
        ctx.ch_lb = _ptr(self._ch_lb)
        ctx.ch_seq = _ptr(self._ch_seq)
        ctx.ch_slot = _ptr(self._ch_slot)
        ctx.best_proc = _ptr(self._best_proc)
        ctx.best_start = _ptr(self._best_start)

    def step(self) -> int:
        self.lib.arena_drive(ctypes.byref(self.ctx))
        self.arena.nfree = int(self.ctx.nfree)
        return int(self.ctx.status)

    def grow(self, status: int) -> None:
        if status == ST_GROW_ARENA:
            self.arena.grow()
        else:
            cap = self._fr_cap * 2
            for name in ("_fr_lb", "_fr_seq", "_fr_slot", "_fr_level"):
                old = getattr(self, name)
                fresh = np.zeros(cap, dtype=old.dtype)
                fresh[: old.shape[0]] = old
                setattr(self, name, fresh)
            self._fr_cap = cap
        self._bind()

    # ------------------------------------------------------------------

    def sync_stats(self, stats) -> None:
        ctx = self.ctx
        stats.generated = int(ctx.generated)
        stats.explored = int(ctx.explored)
        stats.goals_evaluated = int(ctx.goals_evaluated)
        stats.pruned_children = int(ctx.pruned_children)
        stats.pruned_active = int(ctx.pruned_active)
        stats.incumbent_updates = int(ctx.incumbent_updates)
        stats.peak_active = int(ctx.peak_active)

    @property
    def seq(self) -> int:
        return int(self.ctx.seq)

    @property
    def threshold(self) -> float:
        return float(self.ctx.threshold)

    @property
    def incumbent(self) -> float:
        return float(self.ctx.incumbent)

    @property
    def best_found(self) -> bool:
        return bool(self.ctx.best_found)

    @property
    def found_cost(self) -> float:
        return float(self.ctx.found_cost)

    def best_schedule(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """The incumbent schedule, rebuilt only after an improvement."""
        key = int(self.ctx.incumbent_updates)
        if key != self._best_key:
            self._best_key = key
            self._best = (
                tuple(self._best_proc.tolist()),
                tuple(self._best_start.tolist()),
            )
        return self._best

    def pending_vertex(self):
        """The vertex parked at a boundary, as a non-owning handle."""
        ctx = self.ctx
        if not ctx.pend_valid:
            return None
        return Vertex(
            ArenaState(self.arena, int(ctx.pend_slot), owned=False),
            float(ctx.pend_lb),
            int(ctx.pend_seq),
        )

    def take_pending(self):
        """Claim the parked vertex; the driver will not resume it."""
        vertex = self.pending_vertex()
        self.ctx.pend_valid = 0
        return vertex

    def retarget(
        self, check_at: int, incumbent: float, threshold: float,
        pruned_active: int,
    ) -> None:
        """Hand back what a boundary may have changed before re-entry."""
        ctx = self.ctx
        ctx.check_at = check_at
        ctx.incumbent = incumbent
        ctx.threshold = threshold
        ctx.pruned_active = pruned_active

    def err_slot(self) -> int:
        return int(self.ctx.err_slot)

    def open_min_bound(self):
        """Minimum bound over the open frontier (stale entries excluded)."""
        ctx = self.ctx
        if ctx.frontier_kind < 2:
            lo, hi = int(ctx.fr_head), int(ctx.fr_len)
            if hi <= lo:
                return None
            return float(self._fr_lb[lo:hi].min())
        lbs = self._fr_lb[: int(ctx.fr_len)]
        live = lbs[lbs < ctx.fr_threshold]
        if live.size == 0:
            return None
        return float(live.min())

    def active_len(self) -> int:
        ctx = self.ctx
        if ctx.frontier_kind < 2:
            return int(ctx.fr_len - ctx.fr_head)
        return int(ctx.fr_live)

    @property
    def frontier(self) -> "FrontierView":
        return FrontierView(self)


class FrontierView:
    """The driver's frontier arrays behind the engine's Frontier surface.

    Valid while the driver is paused (at a boundary or after it ended).
    ``export`` hands out non-owning :class:`ArenaState` handles in pop
    order, so checkpoints pickle them as flat states exactly like the
    Python frontier's; ``prune_above`` runs the kernel's own sweep, with
    the same stale-entry accounting as the matching Python frontier.
    """

    __slots__ = ("_d",)

    def __init__(self, driver: NativeDriver) -> None:
        self._d = driver

    def __len__(self) -> int:
        return self._d.active_len()

    def __bool__(self) -> bool:
        return len(self) > 0

    def _live(self) -> np.ndarray:
        """Indices of the open entries, in storage order."""
        d = self._d
        ctx = d.ctx
        if ctx.frontier_kind < 2:
            return np.arange(int(ctx.fr_head), int(ctx.fr_len))
        return np.flatnonzero(d._fr_lb[: int(ctx.fr_len)] < ctx.fr_threshold)

    def min_bound(self):
        return self._d.open_min_bound()

    def open_profile(self, levels: int):
        d = self._d
        idx = self._live()
        if idx.size == 0:
            return None, {}
        counts = np.bincount(np.minimum(d._fr_level[idx], levels - 1))
        depths = {int(k): int(counts[k]) for k in np.flatnonzero(counts)}
        return float(d._fr_lb[idx].min()), depths

    def export(self) -> list:
        d = self._d
        kind = d.ctx.frontier_kind
        idx = self._live()
        lbs, seqs = d._fr_lb[idx], d._fr_seq[idx]
        if kind == 0:
            idx = idx[::-1]
        elif kind == 2:
            idx = idx[np.lexsort((seqs, lbs))]
        elif kind == 3:
            idx = idx[np.lexsort((seqs, -d._fr_level[idx], lbs))]
        arena = d.arena
        return [
            Vertex(ArenaState(arena, slot, owned=False), lb, sq)
            for slot, lb, sq in zip(
                d._fr_slot[idx].tolist(),
                d._fr_lb[idx].tolist(),
                d._fr_seq[idx].tolist(),
            )
        ]

    def prune_above(self, threshold: float) -> int:
        d = self._d
        swept = int(d.lib.arena_prune_above(ctypes.byref(d.ctx), threshold))
        d.arena.nfree = int(d.ctx.nfree)
        return swept
