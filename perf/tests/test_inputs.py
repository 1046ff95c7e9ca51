"""Seeded input selection and answer checking."""

import pytest

from perf import inputs
from perf.inputs import Cell, Window, check_answer, parse_result

SMALL = {
    "tiny": Window(20, 400, 1, 1),
    "small": Window(500, 5_000, 1, 1),
}


def test_selection_is_deterministic_and_respects_windows_and_quotas():
    first = inputs.select(0, SMALL, screen_engine="object")
    assert first == inputs.select(0, SMALL, screen_engine="object")
    for name, window in SMALL.items():
        cells = first[name]
        assert [c.selection for c in cells].count("LIFO") == window.lifo
        assert [c.selection for c in cells].count("LLB") == window.llb
        assert len({c.gen_seed for c in cells}) == len(cells)
        for cell in cells:
            assert window.lo <= cell.generated <= window.hi
            assert 0 <= cell.gen_seed < 1000


def test_prescreen_engine_does_not_change_the_selection():
    assert inputs.select(1, SMALL, screen_engine="array") == inputs.select(
        1, SMALL, screen_engine="object"
    )


def test_paper_stream_draws_are_seeded_and_capped():
    draws = inputs.draw_paper_stream(3, n=4)
    assert draws == inputs.draw_paper_stream(3, n=4)
    assert [c.m for c in draws] == [2, 3, 4, 2]
    assert all(c.generated <= inputs.PAPER_CAP for c in draws)
    assert all(3000 <= c.gen_seed < 4000 for c in draws)
    assert draws != inputs.draw_paper_stream(4, n=4)


def test_pinned_paper_stream_matches_the_generator():
    pinned = inputs.load_expected()["paper_stream"]
    assert pinned["cells"] == inputs.draw_paper_stream(pinned["seed"])


def test_pinned_hard_cells_respect_their_windows():
    sets = inputs.load_expected()["sets"]
    assert set(sets) == set(inputs.SETS)
    for name, cells in sets.items():
        window = inputs.SETS[name]
        assert len(cells) == window.lifo + window.llb
        assert all(window.lo <= c.generated <= window.hi for c in cells)


def test_materialize_reports_changed_inputs(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "OUT", tmp_path)
    cell = inputs.load_expected()["sets"]["hard-small"][0]
    assert inputs.materialize(cell) is None
    changed = Cell(**{**cell.__dict__, "sha256": "0" * 64})
    assert "inputs changed" in inputs.materialize(changed)


CELL = Cell("c", "hard", 5, 2, "LIFO", "0" * 64, 1.1259388790078333, 22759)


def _output(status="optimal", l_max="1.12594", generated=22759):
    return (
        "parameters: <B=BFn, S=LIFO, ...>\n"
        f"{status}: L_max={l_max} (U=3.5, from search); generated={generated} "
        "explored=7000 pruned=1 goals=2 peakAS=30 t=0.412s (55,000 v/s)\n"
    )


def test_parse_result_reads_status_l_max_and_count():
    assert parse_result(_output()) == {
        "status": "optimal", "l_max": 1.12594, "generated": 22759
    }
    assert parse_result("error: no such file\n") is None


def test_correct_answer_passes():
    got = parse_result(_output())
    assert check_answer(CELL, got, exact_count=True, printed=True) is None


@pytest.mark.parametrize(
    "output, exact, reason",
    [
        (_output(l_max="1.12595"), True, "L_max"),
        (_output(l_max="-"), True, "L_max"),
        (_output(generated=22760), True, "generated"),
        (_output(status="truncated"), True, "status"),
        ("", True, "no result line"),
    ],
)
def test_wrong_answers_fail(output, exact, reason):
    error = check_answer(CELL, parse_result(output), exact_count=exact, printed=True)
    assert error is not None and reason in error


def test_count_is_not_checked_where_it_legitimately_varies():
    got = parse_result(_output(generated=15000))
    assert check_answer(CELL, got, exact_count=False, printed=True) is None


def test_unprinted_answers_compare_at_full_precision():
    got = {"status": "optimal", "l_max": 1.12594, "generated": 22759}
    assert check_answer(CELL, got, exact_count=True, printed=False) is not None
    got["l_max"] = CELL.l_max
    assert check_answer(CELL, got, exact_count=True, printed=False) is None
