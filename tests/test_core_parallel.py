"""Unit tests for the multiprocessing parallel driver.

``ParallelBnB`` is held to its contract (optimal cost, valid schedule,
one global TIMELIMIT) and to its worker lifecycle (no process when the
shallow pass closes the search, no listening socket, no leftover
child).  The supporting machinery — frontier export order, sub-search
resumption, the parallel report — is covered piecewise.
"""

from __future__ import annotations

import math
import multiprocessing
import socket
import time
from types import SimpleNamespace

import pytest

from repro.core import (
    BnBParameters,
    BranchAndBound,
    LIFOSelection,
    ParallelBnB,
    ResourceBounds,
    SolveStatus,
    Vertex,
    root_state,
)
from repro.core.engine import SubtreeSpec
from repro.core.expand import FusedExpander
from repro.core.parallel import default_worker_count
from repro.core.selection import SELECTION_RULES
from repro.errors import ConfigurationError
from repro.model import compile_problem, shared_bus_platform
from repro.workload import WorkloadSpec, generate_task_graph, spec_for_profile

from conftest import make_chain, make_diamond, make_forkjoin
from faultlib import FaultPlan, ShardFault


def _problems():
    probs = [
        compile_problem(make_chain(), shared_bus_platform(2)),
        compile_problem(make_diamond(), shared_bus_platform(2)),
        compile_problem(make_forkjoin(), shared_bus_platform(2)),
    ]
    # Tight deadlines + real communication costs: EDF is not optimal
    # here, so the search trees are non-trivial (~2k vertices each).
    spec = WorkloadSpec(
        num_tasks=(8, 10), depth=(3, 5), ccr=1.0, laxity_ratio=1.05
    )
    for seed in (0, 4):
        probs.append(
            compile_problem(
                generate_task_graph(spec, seed=seed), shared_bus_platform(2)
            )
        )
    return probs


PROBLEMS = _problems()
_IDS = [f"{p.graph.name}-m{p.m}" for p in PROBLEMS]

LIFO = BnBParameters(selection=LIFOSelection())

#: ``elapsed`` is wall-clock; ``peak_active`` is an upper estimate in
#: parallel mode.  Everything else must match exactly.
_INEXACT = ("elapsed", "peak_active")


def _exact(stats) -> dict:
    d = stats.as_dict()
    for key in _INEXACT:
        d.pop(key)
    return d


def _assert_identical(par, seq):
    assert par.status == seq.status
    assert par.best_cost == seq.best_cost
    assert par.proc_of == seq.proc_of
    assert par.start == seq.start
    assert par.initial_upper_bound == seq.initial_upper_bound
    assert par.incumbent_source == seq.incumbent_source
    assert _exact(par.stats) == _exact(seq.stats)


# ---------------------------------------------------------------------------
# Contract
# ---------------------------------------------------------------------------


def test_time_limit_is_one_deadline_for_the_whole_solve():
    # A cell whose shards each outlast the limit on the Python loop: a
    # per-shard deadline would run for about shards/workers times T.
    graph = generate_task_graph(
        spec_for_profile("paper", laxity_ratio=1.05), seed=53
    )
    problem = compile_problem(graph, shared_bus_platform(3))
    limit = 0.5
    params = BnBParameters(
        selection=LIFOSelection(),
        resources=ResourceBounds(time_limit=limit),
        engine="object",
    )
    solver = ParallelBnB(params, workers=2, split_depth=2)
    t0 = time.monotonic()
    result = solver.solve(problem)
    wall = time.monotonic() - t0
    assert result.status is SolveStatus.TIMEOUT
    assert result.stats.time_limit_hit
    assert wall < limit + 1.5, wall
    # Shards the deadline cut short still report their counters.
    assert result.stats.generated > 1000
    result.schedule().validate()


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        ParallelBnB(workers=0)
    with pytest.raises(ConfigurationError):
        ParallelBnB(split_depth=0)
    assert default_worker_count() >= 1


@pytest.mark.parametrize("problem", PROBLEMS, ids=_IDS)
def test_throughput_mode_is_cost_optimal(problem):
    seq = BranchAndBound(LIFO).solve(problem)
    solver = ParallelBnB(LIFO, workers=2, split_depth=2)
    thr = solver.solve(problem)
    assert thr.best_cost == seq.best_cost
    assert thr.status is SolveStatus.OPTIMAL
    if thr.proc_of is not None:
        thr.schedule().validate()


def test_throughput_with_no_shards_returns_the_shallow_result():
    problem = PROBLEMS[0]  # chain: split deeper than the tree
    solver = ParallelBnB(LIFO, workers=2, split_depth=problem.n + 1)
    thr = solver.solve(problem)
    seq = BranchAndBound(LIFO).solve(problem)
    _assert_identical(thr, seq)
    assert solver.last_report.shards == 0


def test_throughput_closed_by_the_shallow_pass_starts_no_worker(monkeypatch):
    def refuse(self):
        raise AssertionError(f"started worker process {self.name}")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    problem = PROBLEMS[-1]
    solver = ParallelBnB(
        LIFO, workers=2, split_depth=problem.n + 1
    )
    thr = solver.solve(problem)
    assert thr.best_cost == BranchAndBound(LIFO).solve(problem).best_cost
    assert solver.last_report.shards == 0


def test_throughput_opens_no_listening_socket(monkeypatch):
    # Local workers talk over socketpairs: no local user can connect.
    def refuse(self, *args):
        raise AssertionError("throughput mode called listen()")

    monkeypatch.setattr(socket.socket, "listen", refuse)
    problem = PROBLEMS[-1]
    solver = ParallelBnB(LIFO, workers=2, split_depth=2)
    thr = solver.solve(problem)
    assert thr.best_cost == BranchAndBound(LIFO).solve(problem).best_cost
    assert solver.last_report.shards > 0


def test_throughput_more_workers_than_cores_keeps_the_optimum():
    # Four local workers and depth-3 shards race on the broadcast
    # incumbent; a lost or misordered bound update would show as a
    # wrong cost or a shard never accounted for.
    problem = PROBLEMS[-1]
    solver = ParallelBnB(LIFO, workers=4, split_depth=3)
    thr = solver.solve(problem)
    assert thr.best_cost == BranchAndBound(LIFO).solve(problem).best_cost
    assert thr.status is SolveStatus.OPTIMAL
    report = solver.last_report
    assert report.shards > 4
    assert report.worker_restarts == 0 and report.quarantined == ()


def test_throughput_hang_leaves_no_live_child():
    before = set(multiprocessing.active_children())
    problem = PROBLEMS[-1]
    solver = ParallelBnB(
        LIFO,
        workers=2,
        split_depth=2,
        heartbeat_timeout=0.3,
        retry_backoff=0.001,
        fault_plan=FaultPlan((ShardFault("hang", shard=0, attempt=1),)),
    )
    thr = solver.solve(problem)
    assert thr.best_cost == BranchAndBound(LIFO).solve(problem).best_cost
    assert solver.last_report.worker_restarts >= 1
    assert set(multiprocessing.active_children()) <= before


# ---------------------------------------------------------------------------
# Machinery
# ---------------------------------------------------------------------------


def test_subtree_resume_reproduces_the_root_evaluation():
    problem = PROBLEMS[-1]
    params = BnBParameters()
    expander = FusedExpander(
        problem,
        params.branching.prepare(problem),
        params.lower_bound,
        params.characteristic,
        params.dominance.fresh(),
        params.elimination,
        params.break_symmetry,
    )
    fresh = expander.root()
    resumed = expander.root_from(root_state(problem))
    assert resumed.lower_bound == fresh.lower_bound
    # Bitwise-equal estimate vectors: the incremental bound continues
    # in a worker exactly as it would have in the coordinator.
    assert resumed.est == fresh.est
    assert resumed.estart == fresh.estart
    # A shipped lower bound is trusted verbatim (no re-evaluation drift).
    pinned = expander.root_from(root_state(problem), fresh.lower_bound)
    assert pinned.lower_bound == fresh.lower_bound


def test_subtree_solve_equals_inline_subtree():
    """A sub-search from a mid-tree vertex finds the best completion at
    or below the incumbent it was given."""
    problem = PROBLEMS[1]  # diamond
    seq = BranchAndBound(LIFO).solve(problem)
    state = root_state(problem).child(0, 0)
    lb = BnBParameters().lower_bound.evaluate(state)
    sub = BranchAndBound(LIFO).solve(
        problem,
        subtree=SubtreeSpec(state, lb, math.inf),
    )
    # The first root placement is symmetric-optimal for the diamond, so
    # the subtree contains an optimal completion.
    assert sub.best_cost == pytest.approx(seq.best_cost, abs=1e-9)
    # Sub-search roots are not re-counted: all generated vertices are
    # strictly below the shipped root.
    assert sub.stats.generated < seq.stats.generated


def test_frontier_export_matches_pop_order():
    for name, cls in SELECTION_RULES.items():
        frontier = cls().make_frontier()
        # LLB-D orders by depth too, so the stub states need a level.
        vertices = [
            Vertex(SimpleNamespace(level=seq % 3), lb, seq)
            for seq, lb in enumerate([3.0, 1.0, 2.0, 1.0, 5.0])
        ]
        for v in vertices:
            frontier.push(v)
        exported = frontier.export()
        popped = []
        while True:
            v = frontier.pop()
            if v is None:
                break
            popped.append(v)
        assert exported == popped, name

