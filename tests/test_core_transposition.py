"""The duplicate-state transposition layer (``repro.core.transposition``).

Covers the three halves of the subsystem separately and together:

* canonical identity — incremental Zobrist signatures against the
  from-scratch rebuild, processor-relabel invariance on uniform
  interconnects (and deliberate label sensitivity on non-uniform ones),
  and the packed-payload codec;
* the memory-bounded table — hit/miss/insert accounting, hash-collision
  verification, the capacity bound and depth-preferred replacement,
  plus the shared-memory variant's create/attach/probe lifecycle;
* engine integration — a full differential sweep over the ⟨B,S,E,L⟩
  registry asserting the table never changes the reported cost and
  never increases the searched-vertex count, fused/reference parity
  with the table on, composition with :class:`StateDominance`, one
  table per solve (freed with it, its counters on the solve's stats),
  and the parallel driver's shared-table mode.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

from repro.core import BnBParameters, BranchAndBound
from repro.core.bounds import LOWER_BOUNDS
from repro.core.branching import BRANCHING_RULES
from repro.core.dominance import ChainedDominance, StateDominance
from repro.core.elimination import ELIMINATION_RULES
from repro.core.selection import SELECTION_RULES
from repro.core.state import root_state
from repro.core.transposition import (
    WAYS,
    PayloadCodec,
    SharedTranspositionTable,
    TranspositionDominance,
    TranspositionTable,
    child_signature,
    find_transposition,
)
from repro.errors import ConfigurationError
from repro.model import Platform, compile_problem, shared_bus_platform
from repro.model.interconnect import Mesh2D
from repro.workload import WorkloadSpec, generate_task_graph
from repro.workload.suites import spec_for_profile

from conftest import make_diamond, make_independent
from test_differential_oracle import CASES, MAX_TASKS_UNPRUNED, PROBLEMS, _case_id


def _random_problem(seed: int, m: int = 3):
    graph = generate_task_graph(
        WorkloadSpec(num_tasks=(8, 12), depth=(3, 5)), seed=seed
    )
    return compile_problem(graph, shared_bus_platform(m))


def _search_problem(profile: str, seed: int, m: int):
    """A bench-registry draw known to trigger a real (non-root) search."""
    graph = generate_task_graph(spec_for_profile(profile), seed=seed)
    return compile_problem(graph, shared_bus_platform(m))


# ---------------------------------------------------------------------------
# Canonical signatures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_incremental_signature_matches_scratch(seed):
    """The O(1) per-placement update equals the full rebuild everywhere."""
    problem = _random_problem(seed)
    state = root_state(problem)
    assert state.signature() == state.signature_from_scratch()
    step = 0
    while not state.is_goal:
        task = state.ready_tasks()[step % len(state.ready_tasks())]
        state = state.child(task, (step * 5 + seed) % problem.m)
        assert state.signature() == state.signature_from_scratch()
        step += 1


@pytest.mark.parametrize("seed", [2, 5])
def test_child_signature_matches_materialized_child(seed):
    problem = _random_problem(seed)
    state = root_state(problem)
    codec = PayloadCodec.for_problem(problem)
    while not state.is_goal:
        task = state.ready_tasks()[0]
        for proc in range(problem.m):
            child = state.child(task, proc)
            sig = child_signature(state, task, proc, child.start[task])
            assert sig == child.signature()
            assert codec.pack_child(
                state, task, proc, child.start[task]
            ) == codec.pack_state(child)
        state = state.child(task, seed % problem.m)


def test_signature_relabel_invariant_on_uniform(bus3):
    """Shared bus: permuting processor labels must not change identity."""
    problem = compile_problem(make_diamond(), bus3)
    assert problem.uniform_delay is not None
    src = problem.index["src"]
    left = problem.index["left"]
    root = root_state(problem)
    a = root.child(src, 0).child(left, 1)
    b = root.child(src, 2).child(left, 0)
    assert a.proc_of != b.proc_of
    assert a.signature() == b.signature()
    codec = PayloadCodec.for_problem(problem)
    assert codec.pack_state(a) == codec.pack_state(b)


def test_signature_distinguishes_assignments(bus3):
    """Same task set, structurally different assignment: not equivalent."""
    problem = compile_problem(make_independent(3), bus3)
    root = root_state(problem)
    together = root.child(0, 0).child(1, 0)   # both tasks share a processor
    apart = root.child(0, 0).child(1, 1)      # split across two
    assert together.signature() != apart.signature()
    codec = PayloadCodec.for_problem(problem)
    assert codec.pack_state(together) != codec.pack_state(apart)


def test_signature_label_exact_on_nonuniform():
    """A 1x3 mesh (hop-scaled delays) pins signatures to real labels."""
    problem = compile_problem(
        make_independent(2), Platform(3, Mesh2D(1, 3))
    )
    assert problem.uniform_delay is None
    root = root_state(problem)
    a = root.child(0, 0).child(1, 1)
    b = root.child(0, 1).child(1, 2)
    # Same shape and identical start times, but distinct physical
    # processors: on a non-uniform interconnect these are NOT equivalent
    # (future communication costs differ), so identity must separate them.
    assert a.start == b.start
    assert a.signature() != b.signature()
    codec = PayloadCodec.for_problem(problem)
    assert codec.pack_state(a) != codec.pack_state(b)


def test_codec_rejects_oversized_processor_counts():
    with pytest.raises(ConfigurationError):
        PayloadCodec(4, 255, True)


# ---------------------------------------------------------------------------
# The memory-bounded table
# ---------------------------------------------------------------------------


def _codec():
    return PayloadCodec(4, 2, True)


def _pay(i: int, codec=None):
    codec = codec or _codec()
    return i.to_bytes(4, "little") + bytes(codec.payload_len - 4)


def _tiny_table() -> TranspositionTable:
    """One bucket (= WAYS slots): every probe contends for the same set."""
    table = TranspositionTable(1, _codec())
    assert table.nbuckets == 1 and table.slots == WAYS
    return table


def test_table_hit_miss_accounting():
    table = TranspositionTable(1 << 16, _codec())
    assert table.probe(42, 1, lambda: _pay(0)) is False
    assert table.probe(42, 1, lambda: _pay(0)) is True
    assert (table.hits, table.misses, table.inserts, table.filled) == (
        1, 1, 1, 1,
    )


def test_table_collision_requires_exact_payload():
    """Equal hashes never prune on their own: payloads must match."""
    table = _tiny_table()
    assert table.probe(7, 1, lambda: _pay(1)) is False
    assert table.probe(7, 1, lambda: _pay(2)) is False  # same hash, new state
    assert table.collisions == 1
    assert table.filled == 2
    # Both states are now resident and individually recognized.
    assert table.probe(7, 1, lambda: _pay(1)) is True
    assert table.probe(7, 1, lambda: _pay(2)) is True
    assert table.collisions == 2  # the later entry's hit walks past the first


def test_table_capacity_is_bounded():
    budget = 1 << 20
    table = TranspositionTable(budget, _codec())
    assert table.bytes_estimate <= budget
    for i in range(4 * table.slots):
        table.probe(i + 1, 1, lambda i=i: _pay(i))
    assert table.filled <= table.slots
    assert table.inserts - table.evictions - table.filled == 0


def test_depth_policy_keeps_shallow_entries():
    table = _tiny_table()
    for i in range(WAYS):
        table.probe(i + 1, 2, lambda i=i: _pay(i))
    assert table.filled == WAYS
    # A deeper newcomer is refused outright (its subtree is smaller than
    # anything resident)...
    assert table.probe(100, 5, lambda: _pay(100)) is False
    assert table.rejects == 1 and table.evictions == 0
    # ...while a shallower one evicts the deepest resident entry.
    assert table.probe(101, 1, lambda: _pay(101)) is False
    assert table.evictions == 1
    assert table.probe(101, 1, lambda: _pay(101)) is True


def test_unknown_policy_rejected():
    """Replacement is depth-preferred only: no policy can be chosen."""
    with pytest.raises(TypeError):
        TranspositionTable(1 << 16, _codec(), policy="mru")
    with pytest.raises(TypeError):
        TranspositionDominance(policy="depth")
    with pytest.raises(TypeError):
        BnBParameters().with_transposition(policy="depth")


def test_shared_table_create_attach_probe():
    codec = _codec()
    owner = SharedTranspositionTable.create(1 << 16, codec)
    try:
        assert owner.probe(11, 1, lambda: _pay(11, codec)) is False
        other = SharedTranspositionTable.from_handle(owner.handle())
        try:
            # The attached view sees the owner's insert...
            assert other.probe(11, 1, lambda: _pay(11, codec)) is True
            assert other.probe(12, 1, lambda: _pay(12, codec)) is False
        finally:
            other.close()
        # ...and the owner sees the attached view's.
        assert owner.probe(12, 1, lambda: _pay(12, codec)) is True
    finally:
        owner.close()


def test_shared_table_depth_policy_keeps_shallow_entries():
    """The shared store replaces exactly as the in-process one does."""
    owner = SharedTranspositionTable.create(1, _codec())
    try:
        assert owner.slots == WAYS
        for i in range(WAYS):
            owner.probe(i + 1, 2, lambda i=i: _pay(i))
        assert owner.probe(100, 5, lambda: _pay(100)) is False
        assert owner.rejects == 1 and owner.evictions == 0
        assert owner.probe(101, 1, lambda: _pay(101)) is False
        assert owner.evictions == 1
        assert owner.probe(101, 1, lambda: _pay(101)) is True
    finally:
        owner.close()


def test_shared_table_geometry_mismatch_rejected():
    owner = SharedTranspositionTable.create(1 << 16, _codec())
    try:
        rule = TranspositionDominance()
        rule.bind_shared(owner)
        problem = compile_problem(make_independent(3), shared_bus_platform(3))
        with pytest.raises(ConfigurationError):
            rule.table_for(problem)
    finally:
        owner.close()


def test_rule_pickles_without_runtime_handles():
    owner = SharedTranspositionTable.create(1 << 16, _codec())
    try:
        rule = TranspositionDominance(table_bytes=1 << 20)
        rule.bind_shared(owner)
        clone = pickle.loads(pickle.dumps(rule))
    finally:
        owner.close()
    assert clone.table_bytes == 1 << 20
    assert clone._shared is None
    assert repr(clone) == "TranspositionDominance(table_bytes=1048576)"


def test_rule_is_the_transposition_switch_only():
    from repro.cli import build_parser
    from repro.core.dominance import DOMINANCE_RULES

    assert TranspositionDominance.name not in DOMINANCE_RULES
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["solve", "g.json", "--dominance", "transposition"]
        )


# ---------------------------------------------------------------------------
# Engine integration: the differential sweep
# ---------------------------------------------------------------------------

_sweep_base: dict[tuple, tuple] = {}


def _solve(problem, combo, dominance=None):
    branching, selection, elimination, bound = combo
    kwargs = {} if dominance is None else {"dominance": dominance}
    params = BnBParameters(
        branching=BRANCHING_RULES[branching](),
        selection=SELECTION_RULES[selection](),
        elimination=ELIMINATION_RULES[elimination](),
        lower_bound=LOWER_BOUNDS[bound](),
        **kwargs,
    )
    return BranchAndBound(params).solve(problem)


#: The duplicate-free AO rule refuses dominance layers by construction
#: (each state is generated once; a placement-keyed table would collapse
#: distinct allocation prefixes), so the TT sweep excludes its combos.
TT_CASES = [(i, c) for i, c in CASES if c[0] != "AO"]


@pytest.mark.parametrize(
    "idx,combo", TT_CASES, ids=[_case_id(i, c) for i, c in TT_CASES]
)
def test_table_never_changes_cost_or_adds_work(idx, combo):
    """Over the full ⟨B,S,E,L⟩ registry: identical cost, no extra vertices.

    This is the PR's central soundness claim, checked differentially on
    the same 50-instance registry as the engine-vs-oracle suite: with
    the transposition table on, every configuration must report exactly
    the cost it reports without it, while generating no more vertices.
    """
    problem = PROBLEMS[idx]
    if combo[2] == "none" and problem.n > MAX_TASKS_UNPRUNED:
        pytest.skip("unpruned full enumeration kept to small instances")
    key = (idx, combo)
    if key not in _sweep_base:
        base = _solve(problem, combo)
        _sweep_base[key] = (base.best_cost, base.stats.generated)
    base_cost, base_gen = _sweep_base[key]
    tt = _solve(problem, combo, dominance=TranspositionDominance())
    assert tt.best_cost == pytest.approx(base_cost, abs=1e-9)
    assert tt.stats.generated <= base_gen


def test_fused_matches_reference_with_table_on():
    """Probe contract: both engine paths drive the table identically."""
    problem = _search_problem("paper", 9, 3)
    params = BnBParameters.paper_llb(dominance=TranspositionDominance())
    ref = BranchAndBound(params, fused=False).solve(problem)
    opt = BranchAndBound(params, fused=True).solve(problem)
    assert ref.best_cost == opt.best_cost
    assert ref.proc_of == opt.proc_of and ref.start == opt.start
    ref_stats, opt_stats = ref.stats.as_dict(), opt.stats.as_dict()
    ref_stats.pop("elapsed"), opt_stats.pop("elapsed")
    assert ref_stats == opt_stats
    assert opt.stats.pruned_duplicate > 0


def test_duplicate_pruning_attributed_in_stats():
    problem = _search_problem("scaled", 0, 2)
    params = BnBParameters.paper_default(dominance=TranspositionDominance())
    stats = BranchAndBound(params).solve(problem).stats
    assert stats.pruned_duplicate > 0
    assert stats.pruned_dominated == 0  # pure-duplicate rule
    assert stats.tt_hits == stats.pruned_duplicate
    assert 0 < stats.tt_inserts <= stats.tt_capacity
    assert stats.tt_filled == stats.tt_inserts - stats.tt_evictions
    assert stats.as_dict()["pruned_duplicate"] == stats.pruned_duplicate
    # The table's counters ride the result, outside the snapshot dict.
    assert not any(key.startswith("tt_") for key in stats.as_dict())


def test_chained_with_state_dominance_keeps_cost():
    problem = _search_problem("scaled", 0, 2)
    plain = BranchAndBound(BnBParameters.paper_default()).solve(problem)
    chained = ChainedDominance(TranspositionDominance(), StateDominance())
    both = BranchAndBound(
        BnBParameters.paper_default(dominance=chained)
    ).solve(problem)
    assert both.best_cost == pytest.approx(plain.best_cost, abs=1e-9)
    assert both.stats.generated <= plain.stats.generated
    assert find_transposition(chained) is not None


def test_small_budget_evicts_but_stays_sound():
    """A table far too small for the search still never changes the cost."""
    problem = _search_problem("scaled", 0, 2)
    plain = BranchAndBound(BnBParameters.paper_default()).solve(problem)
    rule = TranspositionDominance(table_bytes=1)
    result = BranchAndBound(
        BnBParameters.paper_default(dominance=rule)
    ).solve(problem)
    assert result.best_cost == pytest.approx(plain.best_cost, abs=1e-9)
    stats = result.stats
    assert stats.tt_capacity == WAYS
    assert stats.tt_filled <= WAYS
    assert stats.tt_evictions + stats.tt_rejects > 0


def test_each_solve_frees_its_table():
    """Solves sharing one rule keep no table alive between them."""
    tables = []

    class Recording(TranspositionDominance):
        def table_for(self, problem):
            table = super().table_for(problem)
            tables.append(weakref.ref(table))
            return table

    problem = _search_problem("scaled", 0, 2)
    params = BnBParameters.paper_default(dominance=Recording())
    runs = [BranchAndBound(params).solve(problem).stats for _ in range(3)]
    gc.collect()
    assert len(tables) == 3
    assert all(ref() is None for ref in tables)
    # Each solve starts from an empty table: identical counters.
    assert len({(s.generated, s.tt_inserts, s.tt_hits) for s in runs}) == 1


# ---------------------------------------------------------------------------
# Parallel driver
# ---------------------------------------------------------------------------


def test_parallel_throughput_shares_the_table():
    from repro.cluster import ClusterCoordinator

    problem = _search_problem("scaled", 0, 2)
    params = BnBParameters.paper_default(
        dominance=TranspositionDominance()
    )
    seq = BranchAndBound(BnBParameters.paper_default()).solve(problem)
    solver = ClusterCoordinator(
        params, local_workers=2, split_depth=2, prefetch=1
    )
    par = solver.solve(problem)
    assert par.best_cost == pytest.approx(seq.best_cost, abs=1e-9)
    assert par.stats.tt_inserts > 0
    assert par.stats.tt_filled <= par.stats.tt_capacity
    assert solver.last_report.shards >= 1

