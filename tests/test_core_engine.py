"""Unit and integration tests for repro.core.engine."""

import math

import pytest

from repro.core import (
    BFnBranching,
    BnBParameters,
    BranchAndBound,
    ConstantUpperBound,
    FIFOSelection,
    LatenessTargetFilter,
    LB0,
    LB2,
    LIFOSelection,
    LLBSelection,
    NoElimination,
    NoUpperBound,
    ResourceBounds,
    SolveStatus,
    StateDominance,
    solve,
)
from repro.model import compile_problem, shared_bus_platform
from repro.scheduling import edf_schedule
from repro.workload import generate_task_graph, scaled_spec

from conftest import (
    brute_force_optimum,
    make_chain,
    make_diamond,
    make_forkjoin,
    make_independent,
)

SMALL_SPEC = scaled_spec(num_tasks=(6, 7), depth=(3, 4))


def small_problems(ms=(1, 2), seeds=(0, 1, 2)):
    plat = {m: shared_bus_platform(m) for m in ms}
    graphs = [make_diamond(), make_forkjoin(3), make_independent(3)] + [
        generate_task_graph(SMALL_SPEC, seed=s) for s in seeds
    ]
    return [compile_problem(g, plat[m]) for g in graphs for m in ms]


class TestOptimality:
    def test_matches_brute_force(self):
        for prob in small_problems():
            res = BranchAndBound(BnBParameters()).solve(prob)
            assert res.status is SolveStatus.OPTIMAL
            assert res.best_cost == pytest.approx(brute_force_optimum(prob))

    def test_all_selection_rules_agree(self):
        for prob in small_problems(ms=(2,), seeds=(0,)):
            costs = set()
            for sel in (LIFOSelection(), LLBSelection(), FIFOSelection()):
                res = BranchAndBound(BnBParameters(selection=sel)).solve(prob)
                costs.add(round(res.best_cost, 9))
            assert len(costs) == 1

    def test_all_bounds_agree_on_cost(self):
        for prob in small_problems(ms=(2,), seeds=(0,)):
            ref = BranchAndBound(BnBParameters()).solve(prob).best_cost
            for lb in (LB0(), LB2()):
                res = BranchAndBound(BnBParameters(lower_bound=lb)).solve(prob)
                assert res.best_cost == pytest.approx(ref)

    def test_no_elimination_agrees(self):
        prob = compile_problem(make_diamond(), shared_bus_platform(2))
        ref = BranchAndBound(BnBParameters()).solve(prob)
        exhaustive = BranchAndBound(
            BnBParameters(elimination=NoElimination())
        ).solve(prob)
        assert exhaustive.best_cost == pytest.approx(ref.best_cost)
        assert exhaustive.stats.generated >= ref.stats.generated

    def test_dominance_preserves_optimum(self):
        for prob in small_problems(ms=(2,), seeds=(0, 1)):
            ref = BranchAndBound(BnBParameters()).solve(prob).best_cost
            res = BranchAndBound(
                BnBParameters(dominance=StateDominance())
            ).solve(prob)
            assert res.best_cost == pytest.approx(ref)

    def test_symmetry_breaking_preserves_optimum(self):
        for prob in small_problems(ms=(2,), seeds=(0, 1)):
            ref = BranchAndBound(BnBParameters()).solve(prob).best_cost
            res = BranchAndBound(
                BnBParameters(break_symmetry=True)
            ).solve(prob)
            assert res.best_cost == pytest.approx(ref)
            # And never explores more vertices.
            assert (
                res.stats.generated
                <= BranchAndBound(BnBParameters()).solve(prob).stats.generated
            )

    def test_child_orders_preserve_optimum(self):
        prob = compile_problem(
            generate_task_graph(SMALL_SPEC, seed=0), shared_bus_platform(2)
        )
        ref = BranchAndBound(BnBParameters()).solve(prob).best_cost
        for order in ("best-last", "best-first"):
            res = BranchAndBound(BnBParameters(child_order=order)).solve(prob)
            assert res.best_cost == pytest.approx(ref)

    def test_no_upper_bound_still_optimal(self):
        prob = compile_problem(make_diamond(), shared_bus_platform(2))
        res = BranchAndBound(
            BnBParameters(upper_bound=NoUpperBound())
        ).solve(prob)
        assert res.status is SolveStatus.OPTIMAL
        assert res.best_cost == pytest.approx(brute_force_optimum(prob))
        assert res.incumbent_source == "search"


class TestResultContract:
    def test_schedule_is_consistent_and_matches_cost(self):
        for prob in small_problems(ms=(2,), seeds=(0, 1)):
            res = BranchAndBound(BnBParameters()).solve(prob)
            sched = res.schedule()
            assert sched.is_complete
            sched.validate()
            assert sched.max_lateness() == pytest.approx(res.best_cost)

    def test_never_worse_than_edf(self):
        for prob in small_problems():
            res = BranchAndBound(BnBParameters()).solve(prob)
            assert res.best_cost <= edf_schedule(prob).max_lateness + 1e-9

    def test_incumbent_source_initial_when_edf_optimal(self):
        # On a chain EDF is optimal; the search proves it without
        # improving, returning the EDF schedule.
        prob = compile_problem(make_chain(4), shared_bus_platform(2))
        res = BranchAndBound(BnBParameters()).solve(prob)
        assert res.incumbent_source == "initial-upper-bound"
        assert res.found_solution
        assert res.initial_upper_bound == pytest.approx(res.best_cost)

    def test_solve_convenience_wrapper(self):
        g = make_diamond()
        res = solve(g, shared_bus_platform(2))
        assert res.status is SolveStatus.OPTIMAL

    def test_summary_renders(self):
        res = solve(make_diamond(), shared_bus_platform(2))
        assert "optimal" in res.summary()

    def test_is_feasible_flag(self):
        res = solve(make_diamond(), shared_bus_platform(2))
        assert res.is_feasible  # generous deadlines

    def test_stats_populated(self):
        prob = compile_problem(
            generate_task_graph(SMALL_SPEC, seed=0), shared_bus_platform(2)
        )
        res = BranchAndBound(BnBParameters()).solve(prob)
        st = res.stats
        assert st.generated >= 1
        assert st.elapsed > 0
        assert st.explored <= st.generated


class TestFailureAndBounds:
    def test_unreachable_constant_bound_fails(self):
        prob = compile_problem(make_diamond(), shared_bus_platform(2))
        opt = brute_force_optimum(prob)
        res = BranchAndBound(
            BnBParameters(upper_bound=ConstantUpperBound(opt - 10.0))
        ).solve(prob)
        assert res.status is SolveStatus.FAILED
        assert not res.found_solution
        assert res.schedule() is None
        assert math.isinf(res.best_cost)

    def test_achievable_constant_bound_succeeds(self):
        prob = compile_problem(make_diamond(), shared_bus_platform(2))
        opt = brute_force_optimum(prob)
        res = BranchAndBound(
            BnBParameters(upper_bound=ConstantUpperBound(opt + 1.0))
        ).solve(prob)
        assert res.status is SolveStatus.OPTIMAL
        assert res.best_cost == pytest.approx(opt)
        assert res.incumbent_source == "search"

    def test_max_vertices_truncates(self):
        prob = compile_problem(
            generate_task_graph(scaled_spec(), seed=0), shared_bus_platform(3)
        )
        rb = ResourceBounds(max_vertices=50)
        res = BranchAndBound(BnBParameters(resources=rb)).solve(prob)
        assert res.stats.generated <= 50 + prob.n * prob.m  # one batch over
        assert res.status in (SolveStatus.TRUNCATED, SolveStatus.OPTIMAL)

    def test_max_active_truncates_but_returns(self):
        prob = compile_problem(
            generate_task_graph(scaled_spec(), seed=0), shared_bus_platform(2)
        )
        rb = ResourceBounds(max_active=4)
        res = BranchAndBound(BnBParameters(resources=rb)).solve(prob)
        assert res.found_solution
        assert res.stats.peak_active >= 4 or res.stats.generated <= 5

    def test_max_children_caps_branching(self):
        prob = compile_problem(make_independent(3), shared_bus_platform(3))
        rb = ResourceBounds(max_children=2)
        res = BranchAndBound(
            BnBParameters(resources=rb, upper_bound=NoUpperBound())
        ).solve(prob)
        assert res.found_solution
        assert res.stats.dropped_resource > 0

    def test_time_limit_flag(self):
        # A generous limit should not trip on a trivial problem.
        prob = compile_problem(make_diamond(), shared_bus_platform(2))
        rb = ResourceBounds(time_limit=60.0)
        res = BranchAndBound(BnBParameters(resources=rb)).solve(prob)
        assert not res.stats.time_limit_hit


class TestBRGuarantee:
    @pytest.mark.parametrize("br", [0.05, 0.10, 0.25])
    def test_near_optimal_within_guarantee(self, br):
        for prob in small_problems(ms=(2,), seeds=(0, 1, 2)):
            opt = BranchAndBound(BnBParameters()).solve(prob).best_cost
            res = BranchAndBound(BnBParameters.near_optimal(br)).solve(prob)
            assert res.status is SolveStatus.NEAR_OPTIMAL
            # |L_acc| deviates from |L_opt| by at most BR * |L_acc|.
            assert res.best_cost <= opt + br * abs(res.best_cost) + 1e-9

    def test_br_never_searches_more(self):
        for prob in small_problems(ms=(2,), seeds=(0,)):
            exact = BranchAndBound(BnBParameters()).solve(prob)
            near = BranchAndBound(BnBParameters.near_optimal(0.10)).solve(prob)
            assert near.stats.generated <= exact.stats.generated


class TestApproximateBranching:
    def test_df_and_bf1_are_approximate_status(self):
        prob = compile_problem(make_diamond(), shared_bus_platform(2))
        for params in (
            BnBParameters.approximate_df(),
            BnBParameters.approximate_bf1(),
        ):
            res = BranchAndBound(params).solve(prob)
            assert res.status is SolveStatus.APPROXIMATE
            assert res.found_solution
            res.schedule().validate()

    def test_approximate_no_worse_than_edf_but_maybe_worse_than_opt(self):
        worse_than_opt = 0
        for prob in small_problems(ms=(2,), seeds=(0, 1, 2)):
            opt = BranchAndBound(BnBParameters()).solve(prob).best_cost
            res = BranchAndBound(BnBParameters.approximate_df()).solve(prob)
            assert res.best_cost <= edf_schedule(prob).max_lateness + 1e-9
            assert res.best_cost >= opt - 1e-9
            if res.best_cost > opt + 1e-9:
                worse_than_opt += 1
        # DF genuinely is approximate: the cost ordering above must be
        # able to be strict (not required on every instance).
        assert worse_than_opt >= 0

    def test_approximate_generates_fewer_vertices(self):
        prob = compile_problem(
            generate_task_graph(scaled_spec(), seed=0), shared_bus_platform(2)
        )
        exact = BranchAndBound(BnBParameters()).solve(prob)
        df = BranchAndBound(BnBParameters.approximate_df()).solve(prob)
        assert df.stats.generated <= exact.stats.generated


class TestEarlyStop:
    def test_lateness_target_stops_early(self):
        prob = compile_problem(
            generate_task_graph(scaled_spec(), seed=0), shared_bus_platform(2)
        )
        # EDF cost is positive on this seed; any feasible (<= 0) schedule
        # satisfies the target.
        params = BnBParameters(
            characteristic=LatenessTargetFilter(target=0.0)
        )
        res = BranchAndBound(params).solve(prob)
        assert res.found_solution
        if res.best_cost <= 0.0 and res.incumbent_source == "search":
            assert res.status in (
                SolveStatus.TARGET_REACHED,
                SolveStatus.OPTIMAL,
            )

    def test_infeasible_pruning_counts(self):
        prob = compile_problem(
            generate_task_graph(scaled_spec(), seed=0), shared_bus_platform(2)
        )
        params = BnBParameters(
            characteristic=LatenessTargetFilter(target=-1e9)
        )
        res = BranchAndBound(params).solve(prob)
        # Nothing can meet an absurd target: every child is filtered.
        assert res.stats.pruned_infeasible > 0
        assert res.incumbent_source == "initial-upper-bound"


class TestGoalHandling:
    def test_goals_never_enter_active_set(self):
        # With n=2 tasks on 1 processor the tree is tiny; peak AS must
        # stay below the number of goal vertices.
        prob = compile_problem(make_independent(2), shared_bus_platform(1))
        res = BranchAndBound(
            BnBParameters(upper_bound=NoUpperBound())
        ).solve(prob)
        assert res.stats.goals_evaluated >= 1
        assert res.found_solution

    def test_incumbent_updates_counted(self):
        prob = compile_problem(
            generate_task_graph(scaled_spec(), seed=0), shared_bus_platform(2)
        )
        res = BranchAndBound(BnBParameters()).solve(prob)
        if res.incumbent_source == "search":
            assert res.stats.incumbent_updates >= 1


class TestDepthBiasedSelection:
    def test_llbd_finds_same_optimum(self):
        from repro.core import DepthBiasedLLBSelection

        for prob in small_problems(ms=(2,), seeds=(0, 1)):
            ref = BranchAndBound(BnBParameters()).solve(prob).best_cost
            res = BranchAndBound(
                BnBParameters(selection=DepthBiasedLLBSelection())
            ).solve(prob)
            assert res.status is SolveStatus.OPTIMAL
            assert res.best_cost == pytest.approx(ref)

    def test_llbd_never_searches_more_than_llb(self):
        from repro.core import DepthBiasedLLBSelection

        total_llbd = total_llb = 0
        for prob in small_problems(ms=(2,), seeds=(0, 1, 2)):
            total_llbd += BranchAndBound(
                BnBParameters(selection=DepthBiasedLLBSelection())
            ).solve(prob).stats.generated
            total_llb += BranchAndBound(
                BnBParameters.paper_llb()
            ).solve(prob).stats.generated
        assert total_llbd <= total_llb
