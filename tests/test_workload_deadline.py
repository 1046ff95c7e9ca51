"""Unit tests for repro.workload.deadline (the slicing pass)."""

import math

import pytest

from repro.errors import ConfigurationError, DeadlineAssignmentError
from repro.model import TaskGraph
from repro.workload import (
    assign_deadlines,
    assign_deadlines_detailed,
    end_to_end_deadline,
)
from repro.workload.generator import generate_task_graph
from repro.workload.spec import PAPER_SPEC

from conftest import make_chain, make_diamond


class TestEndToEndDeadline:
    def test_workload_mode(self, diamond):
        # Sum of wcets = 17, laxity 1.5.
        assert end_to_end_deadline(diamond, 1.5) == pytest.approx(25.5)

    def test_critical_path_mode(self, diamond):
        e2e = end_to_end_deadline(
            diamond, 2.0, mode="critical-path", include_comm=False
        )
        assert e2e == pytest.approx(24.0)  # 2 * 12

    def test_bad_mode_rejected(self, diamond):
        with pytest.raises(DeadlineAssignmentError, match="mode"):
            end_to_end_deadline(diamond, 1.5, mode="nope")

    def test_bad_laxity_rejected(self, diamond):
        with pytest.raises(DeadlineAssignmentError, match="laxity"):
            end_to_end_deadline(diamond, 0.0)

    @pytest.mark.parametrize("laxity", [math.nan, math.inf, -math.inf])
    def test_non_finite_laxity_rejected(self, diamond, laxity):
        with pytest.raises(ConfigurationError, match="finite"):
            assign_deadlines(diamond, laxity_ratio=laxity)


class TestSlicing:
    def test_deadlines_monotone_along_chains(self):
        g = assign_deadlines(make_chain(5), laxity_ratio=1.5)
        for i in range(4):
            a, b = g.task(f"c{i}"), g.task(f"c{i+1}")
            assert a.absolute_deadline(1) < b.absolute_deadline(1)

    def test_windows_fit_execution(self):
        for seed in range(5):
            raw = generate_task_graph(PAPER_SPEC, seed=seed, assign_windows=False)
            g = assign_deadlines(raw, laxity_ratio=1.5)
            for t in g:
                assert t.relative_deadline >= t.wcet - 1e-9

    def test_contiguous_windows_nonoverlapping_along_chains(self):
        for seed in range(5):
            raw = generate_task_graph(PAPER_SPEC, seed=seed, assign_windows=False)
            g = assign_deadlines(raw, laxity_ratio=1.5, window_mode="contiguous")
            for ch in g.channels:
                pred, succ = g.task(ch.src), g.task(ch.dst)
                # Successor window starts no earlier than pred deadline.
                assert succ.arrival(1) >= pred.absolute_deadline(1) - 1e-9

    def test_tight_windows_are_scaled_slices(self):
        raw = make_chain(4, wcet=10.0, msg=0.0)
        det = assign_deadlines_detailed(
            raw, laxity_ratio=1.5, mode="critical-path", include_comm=False,
            window_mode="tight",
        )
        g = det.graph
        for t in g:
            assert t.relative_deadline == pytest.approx(10.0 * det.scale)

    def test_last_deadline_equals_end_to_end(self):
        raw = make_chain(4, wcet=10.0, msg=5.0)
        det = assign_deadlines_detailed(raw, laxity_ratio=1.5)
        last = det.graph.task("c3")
        assert last.absolute_deadline(1) == pytest.approx(det.end_to_end)

    def test_structure_preserved(self, diamond):
        g = assign_deadlines(diamond)
        assert g.task_names == diamond.task_names
        assert [(c.src, c.dst) for c in g.channels] == [
            (c.src, c.dst) for c in diamond.channels
        ]

    def test_original_graph_untouched(self, diamond):
        assign_deadlines(diamond)
        assert all(t.relative_deadline == 100.0 for t in diamond)

    def test_comm_inclusive_slices_grow_deadlines(self):
        raw = make_chain(4, wcet=10.0, msg=10.0)
        excl = assign_deadlines(raw, include_comm=False, mode="critical-path",
                                laxity_ratio=1.5)
        incl = assign_deadlines(raw, include_comm=True, mode="critical-path",
                                laxity_ratio=1.5)
        # With comm included, intermediate tasks sit later in the
        # end-to-end window (message slices precede them).
        assert incl.task("c1").absolute_deadline(1) > excl.task(
            "c1"
        ).absolute_deadline(1)


class TestStretching:
    def test_requested_below_critical_path_stretches(self):
        # Laxity over workload, but comm-inclusive paths exceed it.
        raw = make_chain(4, wcet=10.0, msg=40.0)
        det = assign_deadlines_detailed(raw, laxity_ratio=1.0, include_comm=True)
        assert det.was_stretched
        assert det.scale == pytest.approx(1.0)
        assert det.end_to_end > det.requested_end_to_end

    def test_no_stretch_when_laxity_sufficient(self):
        raw = make_chain(4, wcet=10.0, msg=0.0)
        det = assign_deadlines_detailed(raw, laxity_ratio=1.5)
        assert not det.was_stretched
        assert det.scale == pytest.approx(1.5)

    def test_empty_graph_rejected(self):
        with pytest.raises(DeadlineAssignmentError, match="empty"):
            assign_deadlines(TaskGraph())

    def test_bad_window_mode_rejected(self, diamond):
        with pytest.raises(DeadlineAssignmentError, match="window_mode"):
            assign_deadlines(diamond, window_mode="nope")
