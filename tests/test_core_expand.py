"""Fused expansion path: equivalence with the reference loop.

The fused :class:`~repro.core.expand.FusedExpander` (incremental lower
bounds, admission pre-check, lazy child states) must be *search-order
invisible*: every solve statistic, the incumbent trajectory and the
returned schedule have to match the reference per-child loop exactly,
across every rule combination the engine accepts.  These tests sweep
generated workloads through both paths and compare them field by field,
and additionally pin the supporting machinery: incremental bound
evaluations against the full recursions, lazy child materialization
against eager construction, the compiled static tails against brute
force, and the lazy-deletion LLB frontier against a naive model.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.bounds import LB0, LB1, LB2, TrivialBound
from repro.core.branching import BF1Branching, BFnBranching, DFBranching
from repro.core.dominance import StateDominance
from repro.core.elimination import NoElimination
from repro.core.engine import BranchAndBound
from repro.core.expand import FusedExpander, PendingChild
from repro.core.feasibility import LatenessTargetFilter
from repro.core.params import BnBParameters
from repro.core.resources import ResourceBounds
from repro.core.selection import (
    DepthBiasedLLBSelection,
    FIFOSelection,
    LIFOSelection,
    LLBSelection,
)
from repro.core.state import root_state
from repro.core.vertex import Vertex
from repro.model.compile import compile_problem
from repro.model.platform import shared_bus_platform
from repro.workload.generator import generate_task_graph
from repro.workload.suites import spec_for_profile

from conftest import native_disabled

#: Cap so that weak configurations (TrivialBound, NoElimination) stay
#: cheap; truncation is fine — both paths must truncate identically.
_CAPPED = ResourceBounds(max_vertices=20_000)


def _problem(seed: int, m: int = 2, profile: str = "tiny"):
    graph = generate_task_graph(spec_for_profile(profile), seed)
    return compile_problem(graph, shared_bus_platform(m))


def _solve_both(params: BnBParameters, problem):
    ref = BranchAndBound(params.evolve(engine="reference")).solve(problem)
    opt = BranchAndBound(params.evolve(engine="object")).solve(problem)
    return ref, opt


def _fingerprint(result):
    s = result.stats
    return {
        "status": result.status,
        "best_cost": result.best_cost,
        "proc_of": result.proc_of,
        "start": result.start,
        "generated": s.generated,
        "explored": s.explored,
        "goals_evaluated": s.goals_evaluated,
        "pruned_children": s.pruned_children,
        "pruned_active": s.pruned_active,
        "pruned_infeasible": s.pruned_infeasible,
        "pruned_dominated": s.pruned_dominated,
        "dropped_resource": s.dropped_resource,
        "incumbent_updates": s.incumbent_updates,
        "peak_active": s.peak_active,
        "truncated": s.truncated,
    }


def _assert_equivalent(params: BnBParameters, problem, label: str):
    ref, opt = _solve_both(params, problem)
    assert _fingerprint(ref) == _fingerprint(opt), label


# ---------------------------------------------------------------------------
# Core sweep: branching x selection x bound
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "branching", [BFnBranching(), DFBranching(), BF1Branching()],
    ids=["BFn", "DF", "BF1"],
)
@pytest.mark.parametrize(
    "selection", [LIFOSelection(), FIFOSelection(), LLBSelection()],
    ids=["LIFO", "FIFO", "LLB"],
)
@pytest.mark.parametrize("bound", [LB0(), LB1()], ids=["LB0", "LB1"])
def test_fused_matches_reference_core_sweep(branching, selection, bound):
    params = BnBParameters(
        branching=branching,
        selection=selection,
        lower_bound=bound,
        resources=_CAPPED,
    )
    for seed in range(3):
        for m in (2, 3):
            _assert_equivalent(
                params, _problem(seed, m), f"seed={seed} m={m}"
            )


# ---------------------------------------------------------------------------
# Rule variants the pre-check / lazy paths must detect and disable
# ---------------------------------------------------------------------------


_VARIANTS = {
    "trivial-bound": {"lower_bound": TrivialBound()},
    "lb2-no-incremental": {"lower_bound": LB2()},
    "state-dominance": {"dominance": StateDominance()},
    "lateness-filter": {"characteristic": LatenessTargetFilter(0.0)},
    "no-elimination": {
        "elimination": NoElimination(),
        # Uncut searches explode; a tight cap keeps them comparable.
        "resources": ResourceBounds(max_vertices=4_000),
    },
    "inaccuracy-br": {"inaccuracy": 0.10},
    "best-last-order": {"child_order": "best-last"},
    "best-first-order": {"child_order": "best-first"},
    "symmetry-breaking": {"break_symmetry": True},
    "depth-biased-llb": {"selection": DepthBiasedLLBSelection()},
}


@pytest.mark.parametrize("variant", sorted(_VARIANTS), ids=sorted(_VARIANTS))
def test_fused_matches_reference_rule_variants(variant):
    params = BnBParameters(**{"resources": _CAPPED, **_VARIANTS[variant]})
    for seed in range(3):
        _assert_equivalent(params, _problem(seed), f"seed={seed}")


def test_fused_matches_reference_scaled_llb():
    """One larger best-first instance: the keep-heavy lazy-state path."""
    params = BnBParameters.paper_llb(resources=_CAPPED)
    _assert_equivalent(params, _problem(0, 2, profile="scaled"), "scaled")


# ---------------------------------------------------------------------------
# Array engine: the same equivalence sweep, with and without the driver
# ---------------------------------------------------------------------------
#
# The array engine (the compiled chunk driver where eligible, and its
# fused fallback with the driver disabled) carries the same contract as
# the object engine: search-order invisible, every counter identical.
# Configurations the kernel gate refuses (LB2, dominance, filters) must
# degrade to the fused path silently — the engine parameter is then a
# no-op, which these sweeps verify just as strictly.


def _assert_engines_equivalent(params: BnBParameters, problem, label: str):
    want = _fingerprint(
        BranchAndBound(params.evolve(engine="object")).solve(problem)
    )
    array = params.evolve(engine="array")
    got = _fingerprint(BranchAndBound(array).solve(problem))
    assert got == want, f"{label} native"
    with native_disabled():
        got = _fingerprint(BranchAndBound(array).solve(problem))
    assert got == want, f"{label} no driver"


@pytest.mark.parametrize(
    "branching", [BFnBranching(), DFBranching(), BF1Branching()],
    ids=["BFn", "DF", "BF1"],
)
@pytest.mark.parametrize(
    "selection", [LIFOSelection(), FIFOSelection(), LLBSelection()],
    ids=["LIFO", "FIFO", "LLB"],
)
@pytest.mark.parametrize(
    "bound", [TrivialBound(), LB0(), LB1()], ids=["trivial", "LB0", "LB1"]
)
def test_array_engines_match_object_core_sweep(branching, selection, bound):
    params = BnBParameters(
        branching=branching,
        selection=selection,
        lower_bound=bound,
        resources=_CAPPED,
    )
    for seed in range(2):
        for m in (2, 3):
            _assert_engines_equivalent(
                params, _problem(seed, m), f"seed={seed} m={m}"
            )


@pytest.mark.parametrize("variant", sorted(_VARIANTS), ids=sorted(_VARIANTS))
def test_array_engines_match_object_rule_variants(variant):
    params = BnBParameters(**{"resources": _CAPPED, **_VARIANTS[variant]})
    for seed in range(2):
        _assert_engines_equivalent(params, _problem(seed), f"seed={seed}")


def test_array_engine_survives_forced_numpy_fallback():
    """With the native driver disabled, engine='array' runs the fused path."""
    from repro.core import _native

    with native_disabled():
        assert not _native.native_available()
    params = BnBParameters(resources=_CAPPED, lower_bound=TrivialBound())
    _assert_engines_equivalent(params, _problem(0), "no-native")


# ---------------------------------------------------------------------------
# Incremental bounds vs the full recursions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "bound", [TrivialBound(), LB0(), LB1()],
    ids=["Trivial", "LB0", "LB1"],
)
def test_incremental_bound_matches_full_evaluate(bound):
    """Walk random branches; every child bound must equal the oracle."""
    rng = random.Random(42)
    for seed in range(4):
        problem = _problem(seed)
        inc = bound.make_incremental(problem)
        assert inc is not None
        for _ in range(6):
            state = root_state(problem)
            lb, est, estart = inc.root(state)
            assert lb == bound.evaluate(state)
            while not state.is_goal:
                ready = state.ready_tasks()
                task = rng.choice(ready)
                proc = rng.randrange(problem.m)
                child = state.child(task, proc)
                if inc.uses_lmin:
                    lmin = child.min_avail()
                    changed = lmin != state.min_avail()
                else:
                    lmin, changed = 0.0, False
                child_lb = inc.child(
                    est, estart, lb, task, child.finish[task],
                    child.scheduled_mask, lmin, changed,
                )
                assert child_lb == bound.evaluate(child), (
                    f"seed={seed} task={task} proc={proc}"
                )
                est, estart = inc.commit()
                state, lb = child, child_lb

# ---------------------------------------------------------------------------
# Lazy child materialization
# ---------------------------------------------------------------------------


def test_pending_child_materializes_identically():
    """Lazy vertices freeze to exactly the state eager construction gives."""
    problem = _problem(1)
    params = BnBParameters(resources=_CAPPED)
    expander = FusedExpander(
        problem,
        params.branching.prepare(problem),
        params.lower_bound,
        params.characteristic,
        params.dominance.fresh(),
        params.elimination,
        params.break_symmetry,
    )
    assert expander.lazy_states
    root = expander.root()
    _, children, *_ = expander.expand(root, math.inf, 1)
    assert children, "root expansion produced no children"
    for vertex in children:
        pending = vertex.state
        assert type(pending) is PendingChild
        assert pending.level == root.state.level + 1
        assert not pending.is_goal
        eager = root.state.child(pending.task, pending.proc)
        lazy = pending.materialize()
        for attr in (
            "scheduled_mask", "ready_mask", "proc_of", "start",
            "finish", "avail", "level", "scheduled_lateness",
        ):
            assert getattr(lazy, attr) == getattr(eager, attr), attr
        assert lazy.min_avail() == eager.min_avail()


# ---------------------------------------------------------------------------
# Compiled static tails / descendant closure
# ---------------------------------------------------------------------------


def _brute_tail(problem, i):
    """Longest pure-execution path weight starting at ``i``."""
    best = 0.0
    for j, _ in problem.succ_edges[i]:
        t = _brute_tail(problem, j)
        if t > best:
            best = t
    return problem.wcet[i] + best


def _brute_tail_lateness(problem, i):
    """max over paths i..j of (path execution weight - deadline[j])."""
    best = -problem.deadline[i]
    for j, _ in problem.succ_edges[i]:
        t = _brute_tail_lateness(problem, j)
        if t > best:
            best = t
    return problem.wcet[i] + best


def _brute_descendants(problem, i):
    mask = 0
    for j, _ in problem.succ_edges[i]:
        mask |= (1 << j) | _brute_descendants(problem, j)
    return mask


@pytest.mark.parametrize("seed", range(4))
def test_compiled_tails_match_brute_force(seed):
    problem = _problem(seed)
    for i in range(problem.n):
        assert problem.tail[i] == pytest.approx(_brute_tail(problem, i))
        assert problem.tail_lateness[i] == pytest.approx(
            _brute_tail_lateness(problem, i)
        )
        assert problem.desc_mask[i] == _brute_descendants(problem, i)
        # Rank mask: direct successors, addressed by topological rank.
        mask = 0
        for j, _ in problem.succ_edges[i]:
            mask |= 1 << problem.topo_pos[j]
        assert problem.succ_rank_mask[i] == mask
        assert problem.topo[problem.topo_pos[i]] == i


# ---------------------------------------------------------------------------
# Lazy-deletion LLB frontier vs a naive model
# ---------------------------------------------------------------------------


class _ModelFrontier:
    """Obviously-correct eager reference for the lazy-deletion heap."""

    def __init__(self):
        self.items = []
        self.threshold = math.inf

    def push(self, v):
        if v.lower_bound < self.threshold:
            self.items.append(v)

    def pop(self):
        if not self.items:
            return None
        best = min(self.items, key=lambda v: (v.lower_bound, v.seq))
        self.items.remove(best)
        return best

    def prune_above(self, threshold):
        if threshold >= self.threshold:
            return 0
        before = len(self.items)
        self.items = [v for v in self.items if v.lower_bound < threshold]
        self.threshold = threshold
        return before - len(self.items)

    def drop_worst(self, count):
        if count <= 0:
            return 0
        worst = sorted(
            self.items, key=lambda v: (v.lower_bound, v.seq)
        )[-count:] if count < len(self.items) else list(self.items)
        for v in worst:
            self.items.remove(v)
        return len(worst)

    def __len__(self):
        return len(self.items)


def test_llb_frontier_interleaved_against_model():
    """Random push/pop/prune/drop interleavings match eager semantics."""
    rng = random.Random(7)
    for trial in range(20):
        real = LLBSelection().make_frontier()
        model = _ModelFrontier()
        seq = 0
        threshold = 100.0
        for step in range(300):
            op = rng.random()
            if op < 0.55:
                v = Vertex(None, rng.randrange(100) / 2.0, seq)
                seq += 1
                real.push(v)
                model.push(v)
            elif op < 0.80:
                got, want = real.pop(), model.pop()
                assert (got is want) or (
                    got is not None
                    and want is not None
                    and (got.lower_bound, got.seq)
                    == (want.lower_bound, want.seq)
                ), f"trial={trial} step={step}"
            elif op < 0.92:
                threshold -= rng.randrange(6) / 2.0
                assert real.prune_above(threshold) == model.prune_above(
                    threshold
                ), f"trial={trial} step={step}"
            else:
                k = rng.randrange(4)
                assert real.drop_worst(k) == model.drop_worst(k), (
                    f"trial={trial} step={step}"
                )
            assert len(real) == len(model), f"trial={trial} step={step}"
        # Drain both: the surviving contents must agree exactly.
        while True:
            got, want = real.pop(), model.pop()
            if want is None:
                assert got is None
                break
            assert (got.lower_bound, got.seq) == (
                want.lower_bound, want.seq
            )
