"""Fault-injection tests for the supervised parallel drivers.

``FaultPlan`` lets a test kill, wedge, or mid-flight-crash a worker at
a chosen ⟨shard, attempt⟩ without patching any engine code; the suite
drives the supervised workers through their recovery paths and holds
them to the headline contract: an injected crash costs at most a
bounded retry and never loses the incumbent.
"""

from __future__ import annotations

import pytest

from faultlib import FaultPlan, ShardFault, hard_problem
from repro.cluster import ClusterCoordinator
from repro.core import (
    BnBParameters,
    BranchAndBound,
    LLBSelection,
    SolveStatus,
)
from repro.errors import ConfigurationError
from repro.obs import MemorySink, MetricsRegistry, Observability

PROBLEM = hard_problem(seed=0)
PARAMS = BnBParameters()
SEQ = BranchAndBound(PARAMS).solve(PROBLEM)

#: Fast backoff so retry tests don't sleep their way through CI.
FAST = dict(retry_backoff=0.001)


# ---------------------------------------------------------------------------
# The injection plumbing itself
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="fault kind"):
            ShardFault("explode")

    def test_match_is_exact_on_attempt(self):
        plan = FaultPlan((ShardFault("crash", shard=2, attempt=1),))
        assert plan.match(2, 1) is not None
        assert plan.match(2, 2) is None
        assert plan.match(3, 1) is None

    def test_wildcard_shard_matches_everything(self):
        plan = FaultPlan((ShardFault("crash", shard=-1, attempt=2),))
        assert plan.match(0, 2) is not None
        assert plan.match(99, 2) is not None
        assert plan.match(0, 1) is None

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterCoordinator(PARAMS, local_workers=2, max_shard_attempts=0)
        with pytest.raises(ConfigurationError):
            ClusterCoordinator(PARAMS, local_workers=2, retry_backoff=-0.1)
        with pytest.raises(ConfigurationError):
            ClusterCoordinator(PARAMS, local_workers=2, lease=0.0)


# ---------------------------------------------------------------------------
# Supervised workers
# ---------------------------------------------------------------------------


def _throughput(fault_plan, params=PARAMS, **kwargs):
    # One shard per worker at a time, as ``repro solve --workers`` runs.
    defaults = dict(local_workers=2, split_depth=2, prefetch=1)
    defaults.update(FAST)
    defaults.update(kwargs)
    solver = ClusterCoordinator(params, **defaults)
    solver.fault_plan = fault_plan
    return solver


class TestThroughputSupervision:
    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_crash_on_first_attempt_retries_once_and_recovers(self, engine):
        # Every shard's first attempt dies before searching; the retry
        # (attempt 2) is clean.  Cost parity with the sequential run
        # proves no shard — and no incumbent — was lost.
        solver = _throughput(
            FaultPlan((ShardFault("crash", attempt=1),)),
            PARAMS.evolve(engine=engine),
        )
        result = solver.solve(PROBLEM)
        report = solver.last_report
        assert result.status is SolveStatus.OPTIMAL
        assert result.best_cost == SEQ.best_cost
        assert report.shard_retries == report.shards - report.shards_stale
        assert report.worker_restarts >= report.shard_retries
        assert report.quarantined == ()
        result.schedule().validate()
        if engine == "array":
            assert result.stats.engine_path == "native"

    def test_single_shard_crash_costs_exactly_one_retry(self):
        solver = _throughput(
            FaultPlan((ShardFault("crash", shard=0, attempt=1),))
        )
        result = solver.solve(PROBLEM)
        report = solver.last_report
        assert result.status is SolveStatus.OPTIMAL
        assert result.best_cost == SEQ.best_cost
        assert report.shard_retries == 1
        assert report.quarantined == ()

    def test_shard_retried_after_a_mid_search_crash_is_searched_again(self):
        # The first attempt dies at its second bound poll, after it has
        # filled its transposition table.  The retry must search the
        # shard from an empty table: a table left behind by the dead
        # attempt would prune the shard's children as already seen and
        # end the solve "optimal" at a worse cost (-6.264982...).
        problem = hard_problem(seed=19, processors=2)
        params = BnBParameters(selection=LLBSelection())
        seq = BranchAndBound(params).solve(problem)
        assert seq.best_cost == pytest.approx(-6.922482707890303, abs=1e-12)
        solver = _throughput(
            FaultPlan((ShardFault("crash-mid", shard=0, attempt=1),)),
            params.with_transposition(),
        )
        result = solver.solve(problem)
        assert result.status is SolveStatus.OPTIMAL
        assert result.best_cost == seq.best_cost
        assert solver.last_report.shard_retries == 1
        result.schedule().validate()

    def test_hung_worker_is_detected_and_replaced(self):
        solver = _throughput(
            FaultPlan((ShardFault("hang", shard=0, attempt=1),)),
            lease=0.3,
        )
        result = solver.solve(PROBLEM)
        report = solver.last_report
        assert result.status is SolveStatus.OPTIMAL
        assert result.best_cost == SEQ.best_cost
        assert report.worker_restarts >= 1
        assert report.shard_retries == 1
        assert report.quarantined == ()

    def test_poison_shard_is_quarantined_not_looped_forever(self):
        # Shard 0 dies on every attempt: after max_shard_attempts the
        # supervisor gives up on it, finishes the rest, and refuses to
        # claim optimality for the incomplete search.
        plan = FaultPlan(
            tuple(
                ShardFault("crash", shard=0, attempt=a) for a in (1, 2, 3)
            )
        )
        solver = _throughput(plan, max_shard_attempts=3)
        result = solver.solve(PROBLEM)
        report = solver.last_report
        assert report.quarantined == (0,)
        assert report.shard_retries == 2
        assert result.status is SolveStatus.TRUNCATED
        # The incumbent survives: every other shard still contributed.
        assert result.found_solution
        result.schedule().validate()

    def test_events_and_metrics_record_the_recovery(self):
        sink = MemorySink()
        obs = Observability(sink=sink, metrics=MetricsRegistry())
        solver = _throughput(
            FaultPlan((ShardFault("crash", shard=0, attempt=1),)), obs=obs
        )
        solver.solve(PROBLEM)
        kinds = [k for k, _ in sink.events]
        assert "worker_restart" in kinds
        assert "shard_retry" in kinds
        restart = next(p for k, p in sink.events if k == "worker_restart")
        assert restart["shard"] == 0
        assert restart["attempt"] == 1
        assert obs.metrics.counter("bnb_worker_restart_total").value >= 1
        assert obs.metrics.counter("bnb_shard_retry_total").value >= 1
