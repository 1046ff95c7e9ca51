"""Percentiles, quartile spread and the regression rule."""

import json
import statistics

import pytest

from perf.compare import compare
from perf.stats import percentile, spread, verdict


def test_p75_at_48_samples_leaves_12_beyond():
    values = list(range(1, 49))
    p75 = percentile(values, 75)
    assert p75 == 36
    assert sum(v > p75 for v in values) == 12
    assert percentile(values, 50) == 24
    assert percentile(values, 100) == 48
    assert percentile([7.0], 75) == 7.0


def test_percentile_ignores_input_order():
    assert percentile([5, 1, 4, 2, 3], 50) == 3


def test_spread_is_interquartile_distance_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / 3.0)
    assert spread([2.0]) == 0.0


PARENT = [1.00, 1.01, 0.99, 1.005, 0.995, 1.0, 1.002, 0.998, 1.003, 0.997]


def test_planted_20_percent_regression_is_flagged():
    change = [v * 1.2 for v in PARENT]
    assert verdict(PARENT, change, better="lower", bound=0.1)[0] == "regression"
    slower = [1 / v for v in change]
    assert verdict([1 / v for v in PARENT], slower, better="higher", bound=0.1)[0] == (
        "regression"
    )


def test_3_percent_drift_is_not_flagged():
    change = [v * 1.03 for v in PARENT]
    result, worse = verdict(PARENT, change, better="lower", bound=0.1)
    assert result == "ok"
    assert worse == pytest.approx(0.03, abs=1e-3)


def test_improvement_beyond_the_bound_is_better():
    change = [v * 0.8 for v in PARENT]
    assert verdict(PARENT, change, better="lower", bound=0.1)[0] == "better"


def test_wide_parent_spread_is_unresolved_unless_every_run_wins():
    noisy = [0.7, 0.8, 1.0, 1.2, 1.3]
    assert verdict(noisy, [1.05, 1.1, 1.0], better="lower", bound=0.1)[0] == "unresolved"
    assert verdict(noisy, [0.5, 0.6], better="lower", bound=0.1)[0] == "better"
    assert verdict(noisy, [2.0, 2.1], better="lower", bound=0.1)[0] == "regression"


def _result(tmp_path, name, solves_per_s, failed=0):
    path = tmp_path / name
    path.write_text(json.dumps({
        "workloads": {
            "w": {"end_to_end": {"solves_per_s": solves_per_s}, "failed": failed}
        }
    }))
    return path


METRICS = [{"name": "solves_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]


def test_compare_pools_runs_per_side(tmp_path):
    a = [_result(tmp_path, f"a{i}.json", v) for i, v in enumerate((10.0, 10.1, 9.9))]
    b = [_result(tmp_path, f"b{i}.json", v) for i, v in enumerate((8.0, 8.1, 7.9))]
    (row,) = compare(a, b, METRICS)
    assert (row["workload"], row["metric"], row["verdict"]) == ("w", "solves_per_s", "regression")
    assert row["worse"] == pytest.approx(0.2)


def test_compare_flags_failed_solves(tmp_path):
    a = [_result(tmp_path, "a.json", 10.0)]
    b = [_result(tmp_path, "b.json", 10.0, failed=1)]
    verdicts = {r["metric"]: r["verdict"] for r in compare(a, b, METRICS)}
    assert verdicts == {"failed": "regression", "solves_per_s": "ok"}
