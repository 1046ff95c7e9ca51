"""Parallel gate: the multiprocessing driver reproduces the sequential search.

Deterministic mode (2 workers) must find the sequential cost on every
quick cell.  On the LIFO presets its replay is bit-identical to the
sequential engine (schedule and every counter); on best-first presets,
whose shard-interleaved counters legitimately differ, two runs must be
bit-identical to each other.  Throughput mode must find the sequential
cost.  docs/PARALLEL.md explains why these are the strongest gates the
two modes can meet.
"""

from __future__ import annotations

import pytest

from repro.core.engine import BranchAndBound
from repro.core.parallel import ParallelBnB

from bench_cells import QUICK_CELLS, schedule_fingerprint

#: Best-first replay interleaves shard-local pop sequences, so only the
#: LIFO presets can replay the sequential counters exactly.
EXACT_REPLAY_PRESETS = ("lifo-lb1", "lifo-lb0")


def _replay_fingerprint(result) -> tuple:
    return schedule_fingerprint(result) + (result.stats.pruned_total,)


@pytest.mark.parametrize("cell", QUICK_CELLS, ids=lambda c: c.name)
def test_deterministic_mode_replays_sequential_search(cell):
    problem = cell.problem()
    params = cell.params()
    seq = BranchAndBound(params).solve(problem)
    det = ParallelBnB(params, workers=2, split_depth=2).solve(problem)
    assert det.best_cost == seq.best_cost
    if cell.preset in EXACT_REPLAY_PRESETS:
        assert _replay_fingerprint(det) == _replay_fingerprint(seq)
    else:
        rerun = ParallelBnB(params, workers=2, split_depth=2).solve(problem)
        assert _replay_fingerprint(rerun) == _replay_fingerprint(det)


@pytest.mark.parametrize("cell", QUICK_CELLS, ids=lambda c: c.name)
def test_throughput_mode_finds_sequential_cost(cell):
    problem = cell.problem()
    params = cell.params()
    seq = BranchAndBound(params).solve(problem)
    thr = ParallelBnB(
        params, workers=2, split_depth=2, deterministic=False
    ).solve(problem)
    assert thr.best_cost == seq.best_cost
