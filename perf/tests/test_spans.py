"""Span recording and self time."""

import pytest

from perf.spans import SpanRecorder, self_times, summarize


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("solve", 0.0, 10.0, -1),
        ("expand", 1.0, 4.0, 0),
        ("bound", 2.0, 3.0, 1),
        ("expand", 5.0, 6.0, 0),
        ("import", 11.0, 12.5, -1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.5])
    table = summarize(spans)
    assert table["expand"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert table["solve"]["self_s"] == pytest.approx(6.0)


def test_wrapped_calls_nest_under_their_caller():
    rec = SpanRecorder()

    def inner(x):
        return x + 1

    traced_inner = rec.wrap("inner", inner)

    def outer(x):
        return traced_inner(traced_inner(x))

    traced_outer = rec.wrap("outer", outer)
    rec.solve_id = "cell-a"
    assert traced_outer(1) == 3
    names = [s[0] for s in rec.spans]
    parents = [s[3] for s in rec.spans]
    assert names == ["outer", "inner", "inner"]
    assert parents == [-1, 0, 0]
    assert rec.solve_ids == ["cell-a"] * 3
    summary = rec.summary()["spans"]
    assert summary["inner"]["calls"] == 2
    assert summary["outer"]["self_s"] <= summary["outer"]["total_s"]


def test_after_hook_sees_the_result_and_spans_close_on_error():
    rec = SpanRecorder()
    seen = []

    def fail():
        raise ValueError("boom")

    ok = rec.wrap("ok", lambda: 42, after=lambda args, result: seen.append(result))
    bad = rec.wrap("bad", fail)
    assert ok() == 42
    with pytest.raises(ValueError):
        bad()
    assert seen == [42]
    assert [s[0] for s in rec.spans] == ["ok", "bad"]
    assert rec._stack == []


def test_disabled_recorder_records_nothing():
    rec = SpanRecorder()
    rec.enabled = False
    assert rec.wrap("x", lambda: 1)() == 1
    assert rec.spans == []
