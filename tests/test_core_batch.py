"""Batch expansion kernels: differential tests against the scalar path.

Every vectorized kernel behind the array engine is a small pure
function; each one is tested here against the scalar reference it
claims to replicate, with Hypothesis driving the inputs:

* :func:`~repro.core.batch.batch_earliest_starts` against
  ``CompiledProblem.earliest_start`` on random DAG instances (uniform
  *and* heterogeneous interconnects), at arbitrary reachable states —
  equality is exact (``==``), not approximate, because bit-for-bit
  counter parity is the array engine's contract;
* :func:`~repro.core.batch.batch_admission`,
  :func:`~repro.core.batch.batch_lmin` and
  :func:`~repro.core.batch.batch_lb_fast` against scalar
  transcriptions of the fused expander's per-placement expressions, on
  adversarial float inputs (infinities, signed zeros, denormal-scale
  magnitudes);
* the engine-level seam: ``make_batch_expander`` must accept exactly
  the configurations whose counters the batch path replicates and
  refuse the rest.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arena import ArenaProblem, analyze_cost_domain
from repro.core.bounds import LB0, LB1, LB2, TrivialBound
from repro.core.branching import BFnBranching, DFBranching
from repro.core.dominance import NoDominance, StateDominance
from repro.core.elimination import NoElimination, UDBASElimination
from repro.core.batch import (
    BatchExpander,
    batch_admission,
    batch_earliest_starts,
    batch_lb_fast,
    batch_lmin,
    make_batch_expander,
)
from repro.core.feasibility import LatenessTargetFilter, NoFilter
from repro.core.state import root_state
from repro.model import Platform, compile_problem, shared_bus_platform
from repro.model.interconnect import Ring
from repro.workload import WorkloadSpec, generate_task_graph

SPEC = WorkloadSpec(num_tasks=(5, 9), depth=(2, 4))

#: Finite floats spanning the cost scales the search actually produces,
#: plus signed zeros; kernels compare floats, so sign quirks matter.
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
#: Thresholds/bounds may legitimately be +-inf (no incumbent yet).
maybe_inf = st.floats(allow_nan=False, allow_infinity=True, width=64)


def _problem(seed: int, m: int, ring: bool):
    graph = generate_task_graph(SPEC, seed=seed)
    if ring:
        platform = Platform(m, Ring(m, delay_per_hop=1.5))
    else:
        platform = shared_bus_platform(m)
    return compile_problem(graph, platform)


# ---------------------------------------------------------------------------
# batch_earliest_starts vs CompiledProblem.earliest_start
# ---------------------------------------------------------------------------


@settings(max_examples=60)
@given(
    seed=st.integers(min_value=0, max_value=19),
    m=st.integers(min_value=2, max_value=4),
    ring=st.booleans(),
    walk=st.randoms(use_true_random=False),
)
def test_batch_earliest_starts_matches_scalar(seed, m, ring, walk):
    problem = _problem(seed, m, ring)
    ap = ArenaProblem(problem)
    procs = np.arange(m, dtype=np.int64)
    state = root_state(problem)
    while True:
        ready = state.ready_tasks()
        if not ready:
            break
        tasks = np.asarray(ready, dtype=np.int64)
        proc_row = np.asarray(state.proc_of, dtype=np.int8)
        finish_row = np.asarray(state.finish, dtype=np.float64)
        avail_row = np.asarray(state.avail, dtype=np.float64)
        S, F = batch_earliest_starts(
            ap, proc_row, finish_row, avail_row, tasks, procs
        )
        for i, task in enumerate(ready):
            for q in range(m):
                want = problem.earliest_start(
                    task, q, state.proc_of, state.finish, state.avail[q]
                )
                assert S[i, q] == want, (task, q)
                assert F[i, q] == want + problem.wcet[task], (task, q)
        state = state.child(walk.choice(ready), walk.randrange(m))


# ---------------------------------------------------------------------------
# batch_admission vs the fused per-placement expressions
# ---------------------------------------------------------------------------


def _scalar_admission(ap, s, f, task, parent_lb, threshold, tail_check, exact):
    """Verbatim transcription of the fused pre-check for one placement."""
    floor = f - ap.deadline[task]
    if parent_lb > floor:
        floor = parent_lb
    skip = floor >= threshold
    if tail_check and not skip:
        if exact:
            press = s + ap.tail_lateness[task]
        else:
            press = s + ap.tail_lateness[task] - ap.eps * (
                abs(s) + ap.tail[task] + ap.maxabs_deadline
            )
        skip = press >= threshold
    return skip, floor


@settings(max_examples=80)
@given(
    seed=st.integers(min_value=0, max_value=9),
    starts=st.lists(finite, min_size=4, max_size=12),
    parent_lb=maybe_inf,
    threshold=maybe_inf,
    tail_check=st.booleans(),
    exact=st.booleans(),
)
def test_batch_admission_matches_scalar(
    seed, starts, parent_lb, threshold, tail_check, exact
):
    problem = _problem(seed, 2, ring=False)
    ap = ArenaProblem(problem)
    n = problem.n
    rng = random.Random(seed)
    tasks = np.asarray(
        [rng.randrange(n) for _ in range(len(starts))], dtype=np.int64
    )
    S = np.asarray(starts, dtype=np.float64)[:, None].repeat(2, axis=1)
    S[:, 1] = S[::-1, 0]  # two distinct processor columns
    F = S + ap.wcet[tasks][:, None]
    skip, floor = batch_admission(
        ap, S, F, tasks, parent_lb, threshold, tail_check, exact
    )
    for i, task in enumerate(tasks):
        for q in range(2):
            w_skip, w_floor = _scalar_admission(
                ap, S[i, q], F[i, q], int(task), parent_lb, threshold,
                tail_check, exact,
            )
            assert floor[i, q] == w_floor or (
                math.isnan(w_floor) and math.isnan(floor[i, q])
            ), (i, q)
            assert bool(skip[i, q]) == w_skip, (i, q)


# ---------------------------------------------------------------------------
# batch_lmin / batch_lb_fast vs the fused scalar branches
# ---------------------------------------------------------------------------


@settings(max_examples=80)
@given(
    avail=st.lists(finite, min_size=2, max_size=6),
    fs=st.lists(finite, min_size=3, max_size=10),
    lmin2=maybe_inf,
    data=st.data(),
)
def test_batch_lmin_matches_scalar(avail, fs, lmin2, data):
    avail_procs = np.asarray(avail, dtype=np.float64)
    # Drive the interesting branches: parent_lmin is often the true
    # minimum of avail (sometimes unique), sometimes an arbitrary float.
    parent_lmin = data.draw(
        st.one_of(st.just(float(avail_procs.min())), finite)
    )
    nmin = int(np.count_nonzero(avail_procs == parent_lmin))
    F = np.asarray(fs, dtype=np.float64)[:, None].repeat(
        len(avail), axis=1
    )
    lmin, changed = batch_lmin(avail_procs, parent_lmin, nmin, lmin2, F)
    for i in range(F.shape[0]):
        for q in range(F.shape[1]):
            f = F[i, q]
            # Fused branch: the floor moves only when processor q held
            # the unique parent minimum; then it becomes min(lmin2, f).
            if avail_procs[q] == parent_lmin and nmin == 1:
                want = lmin2 if lmin2 < f else f
            else:
                want = parent_lmin
            assert lmin[i, q] == want, (i, q)
            assert bool(changed[i, q]) == (
                avail_procs[q] == parent_lmin
                and nmin == 1
                and want != parent_lmin
            ), (i, q)


@settings(max_examples=80)
@given(
    est=st.lists(finite, min_size=3, max_size=8),
    deltas=st.lists(
        st.sampled_from([0.0, 1.0, -1.0, 0.5]), min_size=3, max_size=8
    ),
    lb1=st.booleans(),
    min_cand=maybe_inf,
    lmin_val=maybe_inf,
)
def test_batch_lb_fast_matches_scalar(est, deltas, lb1, min_cand, lmin_val):
    k = min(len(est), len(deltas))
    est_tasks = np.asarray(est[:k], dtype=np.float64)
    F = (est_tasks + np.asarray(deltas[:k], dtype=np.float64))[:, None]
    floor = F - 1.0
    changed = np.zeros_like(F, dtype=bool)
    changed[::2] = True
    mc = np.full_like(F, min_cand)
    lm = np.full_like(F, lmin_val)
    fast, out_floor = batch_lb_fast(est_tasks, F, floor, lb1, changed, mc, lm)
    assert out_floor is floor
    for i in range(k):
        realized = F[i, 0] == est_tasks[i]
        want = realized
        if lb1 and realized:
            want = (not changed[i, 0]) or (min_cand >= lmin_val)
        assert bool(fast[i, 0]) == want, i


# ---------------------------------------------------------------------------
# Factory gates
# ---------------------------------------------------------------------------


def _factory(problem, **overrides):
    kwargs = dict(
        prepared=BFnBranching().prepare(problem),
        bound=LB1(),
        charf=NoFilter(),
        dominance=NoDominance().fresh(),
        elim=UDBASElimination(),
        break_symmetry=False,
    )
    kwargs.update(overrides)
    return make_batch_expander(problem, **kwargs)


def test_factory_accepts_the_paper_configurations():
    problem = _problem(0, 2, ring=False)
    for bound in (TrivialBound(), LB0(), LB1()):
        expander = _factory(problem, bound=bound)
        assert type(expander) is BatchExpander, bound.name
    assert type(_factory(problem, elim=NoElimination())) is BatchExpander
    assert type(_factory(
        problem, prepared=DFBranching().prepare(problem)
    )) is BatchExpander


def test_factory_refuses_unreplicated_configurations():
    # A refusal is the reason the engine records as its tier fallback.
    problem = _problem(0, 2, ring=False)
    assert _factory(problem, bound=LB2()) == "LB2 has no incremental form"
    assert _factory(
        problem, dominance=StateDominance().fresh()
    ) == "dominance layer attached"
    # Admission filters run per materialized child.
    assert _factory(problem, charf=LatenessTargetFilter(0.0)) == (
        "characteristic function lateness-target filters children"
    )


def test_exactness_certificate_drives_the_admission_margin():
    # Integer-valued paper workloads certify exact; the kernel then
    # drops the defensive margin, and both variants must still agree
    # with the fused engine (covered end-to-end by the engine sweep).
    problem = _problem(0, 2, ring=False)
    assert analyze_cost_domain(problem).exact in (True, False)
    expander = _factory(problem)
    assert expander is not None
    assert expander.ap.domain.exact == analyze_cost_domain(problem).exact
