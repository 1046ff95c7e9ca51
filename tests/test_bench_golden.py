"""Hot-path gate: fused == reference loop, and golden vertex counts.

The fused expander must search exactly the tree the unfused reference
loop searches: identical generated/explored counts, cost and schedule
on every quick cell.  Vertex counts are machine-independent, so they
are also pinned in ``benchmarks/golden_counts.json``; a search-order
change fails here before anyone inspects a plot.

On an intentional search-order change, regenerate the golden file from
the repository root and commit it::

    PYTHONPATH=src:tests python - <<'EOF'
    import json
    from bench_cells import BENCH_CELLS, GOLDEN_PATH
    from repro.core.engine import BranchAndBound

    pinned = {}
    for cell in BENCH_CELLS:
        r = BranchAndBound(cell.params()).solve(cell.problem())
        pinned[cell.name] = {"generated": r.stats.generated,
                             "explored": r.stats.explored,
                             "best_cost": r.best_cost}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({"schema": "repro-bench-golden/1", "instances": pinned},
                  fh, indent=2)
        fh.write("\\n")
    EOF
"""

from __future__ import annotations

import pytest

from repro.core.engine import BranchAndBound

from bench_cells import (
    BENCH_CELLS,
    QUICK_CELLS,
    load_golden,
    schedule_fingerprint,
)

#: The two smallest cells by pinned generated-vertex count.
SMALL_CELLS = ("paper-s13-m2-lifo-lb1", "scaled-s0-m2-lifo-lb1")


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def _assert_matches_golden(result, pinned):
    assert result.stats.generated == pinned["generated"]
    assert result.stats.explored == pinned["explored"]
    assert result.best_cost == pinned["best_cost"]


@pytest.mark.parametrize("name", SMALL_CELLS)
def test_small_cell_counts_match_golden(name, golden):
    cell = next(c for c in BENCH_CELLS if c.name == name)
    result = BranchAndBound(cell.params()).solve(cell.problem())
    _assert_matches_golden(result, golden[name])


def test_small_cells_are_the_smallest_pinned(golden):
    """Keep SMALL_CELLS honest if the table or goldens ever change."""
    by_size = sorted(golden.items(), key=lambda kv: kv[1]["generated"])
    assert {name for name, _ in by_size[:2]} == set(SMALL_CELLS)


def test_golden_file_pins_exactly_the_cell_table(golden):
    assert set(golden) == {cell.name for cell in BENCH_CELLS}


def test_quick_cells_cover_every_preset():
    assert {c.preset for c in QUICK_CELLS} == {c.preset for c in BENCH_CELLS}
    assert all(c.max_vertices is None for c in QUICK_CELLS)


@pytest.mark.parametrize("cell", QUICK_CELLS, ids=lambda c: c.name)
def test_fused_matches_reference_and_golden(cell, golden):
    problem = cell.problem()
    params = cell.params()
    ref = BranchAndBound(params.evolve(engine="reference")).solve(problem)
    fused = BranchAndBound(params.evolve(engine="object")).solve(problem)
    assert not ref.stats.truncated
    assert schedule_fingerprint(fused) == schedule_fingerprint(ref)
    _assert_matches_golden(fused, golden[cell.name])
