"""Unit tests for repro.obs.profile and the engine's phase hooks."""

import pytest

from repro.core import BnBParameters, BranchAndBound
from repro.model import compile_problem, shared_bus_platform
from repro.obs import PHASES, Observability, PhaseBreakdown, PhaseProfiler
from repro.workload import generate_task_graph, scaled_spec

from conftest import make_diamond


@pytest.fixture
def hard_problem():
    return compile_problem(
        generate_task_graph(scaled_spec(), seed=0), shared_bus_platform(2)
    )


#: The reference tier times each child's branch and bound spans; the
#: fused expander books a vertex's children to one ``expand`` span.
_REFERENCE = BnBParameters(engine="reference")


def profiled_solve(problem, params=None):
    prof = PhaseProfiler()
    res = BranchAndBound(
        params or BnBParameters(), obs=Observability(profiler=prof)
    ).solve(problem)
    return res, prof


class TestProfilerMechanics:
    def test_add_and_reset(self):
        prof = PhaseProfiler()
        prof.add("bound", 0.5)
        prof.add("bound", 0.25)
        prof.add("custom-phase", 1.0)
        assert prof.totals["bound"] == pytest.approx(0.75)
        assert prof.counts["bound"] == 2
        assert prof.totals["custom-phase"] == 1.0
        assert prof.total == pytest.approx(1.75)
        prof.reset()
        assert prof.total == 0.0

    def test_freeze_orders_canonical_phases_first(self):
        prof = PhaseProfiler()
        prof.add("zz-extra", 1.0)
        prof.add("select", 2.0)
        frozen = prof.freeze()
        names = [name for name, _, _ in frozen]
        assert names[: len(PHASES)] == list(PHASES)
        assert names[-1] == "zz-extra"
        assert frozen.seconds("select") == 2.0
        assert frozen.seconds("missing") == 0.0


class TestEngineProfiling:
    def test_off_by_default(self, hard_problem):
        res = BranchAndBound(BnBParameters()).solve(hard_problem)
        assert res.profile is None
        assert "profile:" not in res.summary()

    def test_phase_totals_cover_wall_clock(self, hard_problem):
        """The contiguous-timestamp scheme tiles the solve: phase totals
        must account for at least 90% of SearchStats.elapsed."""
        res, prof = profiled_solve(hard_problem)
        assert res.stats.elapsed > 0
        coverage = res.profile.fraction_of(res.stats.elapsed)
        assert coverage >= 0.90
        # And not wildly more than the wall clock either (finalization
        # laps land after the clock stops, so a small overshoot is fine).
        assert coverage <= 1.25

    def test_hot_phases_dominate(self, hard_problem):
        """Branching and bounding are the B&B's real work; together they
        must dwarf the bookkeeping phases on a genuine search."""
        res, _ = profiled_solve(hard_problem, _REFERENCE)
        d = res.profile.to_dict()
        work = d["branch"] + d["bound"]
        assert work > d["select"]
        assert work > d["goal-eval"]

    def test_summary_includes_breakdown(self, hard_problem):
        res, _ = profiled_solve(hard_problem, _REFERENCE)
        assert "profile:" in res.summary()
        assert "bound=" in res.summary()

    def test_counts_track_loop_iterations(self, hard_problem):
        res, prof = profiled_solve(hard_problem, _REFERENCE)
        # One select lap per pop (explored + pruned-stale + final None).
        assert prof.counts["select"] >= res.stats.explored
        # One bound lap per generated child (root excluded).
        assert prof.counts["bound"] == res.stats.generated - 1

    def test_profile_on_tiny_problem(self):
        prob = compile_problem(make_diamond(), shared_bus_platform(2))
        res, _ = profiled_solve(prob)
        assert res.profile.total >= 0.0
        assert res.profile.seconds("setup") > 0.0


class TestBreakdownRendering:
    def breakdown(self):
        return PhaseBreakdown(
            phases=(("bound", 0.6, 10), ("select", 0.3, 20), ("setup", 0.1, 1))
        )

    def test_summary_sorted_by_share(self):
        text = self.breakdown().summary()
        assert text.index("bound") < text.index("select") < text.index("setup")
        assert "60%" in text

    def test_as_table_shares_against_elapsed(self):
        table = self.breakdown().as_table(elapsed=2.0)
        assert "30.0%" in table  # bound: 0.6 / 2.0
        assert "total" in table
        assert "hits" in table

    def test_as_table_hides_unknown_hits(self):
        bd = PhaseBreakdown(phases=(("bound", 0.6, 0), ("select", 0.3, 0)))
        assert "hits" not in bd.as_table()

    def test_empty_breakdown(self):
        bd = PhaseBreakdown(phases=())
        assert bd.total == 0.0
        assert bd.fraction_of(1.0) == 0.0
        assert "no time recorded" in bd.summary()
