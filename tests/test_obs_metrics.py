"""Unit tests for repro.obs.metrics and the engine's standard instruments."""

import json
import math

import pytest

from repro.core import BnBParameters, BranchAndBound
from repro.model import compile_problem, shared_bus_platform
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Observability,
)
from repro.workload import generate_task_graph, scaled_spec


@pytest.fixture
def hard_problem():
    return compile_problem(
        generate_task_graph(scaled_spec(), seed=0), shared_bus_platform(2)
    )


class TestInstruments:
    def test_counter_monotone(self):
        c = Counter("x_total")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_and_inc(self):
        g = Gauge("x")
        g.set(3.5)
        g.inc(-1.5)
        assert g.value == 2.0

    def test_histogram_buckets_and_mean(self):
        h = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(555.5)
        assert h.bucket_counts == [1, 1, 1, 1]
        assert h.mean == pytest.approx(555.5 / 4)

    def test_histogram_boundary_value_lands_in_its_bucket(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        h.observe(1.0)  # le="1" includes exactly 1.0
        assert h.bucket_counts == [1, 0, 0]

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Counter("bad name")
        with pytest.raises(ValueError):
            Gauge("")


class TestRegistry:
    def test_get_or_create_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("c_total")
        b = reg.counter("c_total")
        assert a is b
        with pytest.raises(ValueError):
            reg.gauge("c_total")  # kind conflict

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(2)
        reg.gauge("g").set(7)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["c_total"] == {"type": "counter", "value": 2}
        assert snap["g"] == {"type": "gauge", "value": 7}
        assert snap["h"]["count"] == 1
        assert snap["h"]["buckets"]["+Inf"] == 0
        json.dumps(snap)  # JSON-serializable throughout

    def test_prometheus_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "a counter").inc(3)
        reg.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        text = reg.to_prometheus()
        assert "# HELP c_total a counter" in text
        assert "# TYPE c_total counter" in text
        assert "c_total 3" in text
        # Histogram buckets are cumulative and end with +Inf.
        assert 'h_bucket{le="1"} 0' in text
        assert 'h_bucket{le="2"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_sum 1.5" in text
        assert "h_count 1" in text

    def test_write_by_extension(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c_total").inc()
        jpath = tmp_path / "m.json"
        ppath = tmp_path / "m.prom"
        reg.write(str(jpath))
        reg.write(str(ppath))
        assert json.loads(jpath.read_text())["c_total"]["value"] == 1
        assert "# TYPE c_total counter" in ppath.read_text()


class TestEngineMetrics:
    def test_counters_match_search_stats(self, hard_problem):
        reg = MetricsRegistry()
        res = BranchAndBound(
            BnBParameters(), obs=Observability(metrics=reg)
        ).solve(hard_problem)
        snap = reg.snapshot()
        stats = res.stats
        assert snap["bnb_generated_vertices_total"]["value"] == stats.generated
        assert snap["bnb_explored_vertices_total"]["value"] == stats.explored
        assert (
            snap["bnb_pruned_children_total"]["value"] == stats.pruned_children
        )
        assert snap["bnb_solves_total"]["value"] == 1
        assert snap["bnb_peak_active_set_size"]["value"] == stats.peak_active
        assert snap["bnb_elapsed_seconds"]["value"] == pytest.approx(
            stats.elapsed
        )

    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_histograms_sampled_per_boundary(self, hard_problem, engine):
        # Both tiers sample the active-set gauge and the histograms once
        # per boundary, never per explored vertex; EDF's finite incumbent
        # means the gap histogram is sampled at every boundary too.
        reg = MetricsRegistry()
        res = BranchAndBound(
            BnBParameters(engine=engine), obs=Observability(metrics=reg)
        ).solve(hard_problem)
        for name in (
            "bnb_active_set_size_distribution", "bnb_lower_bound_gap"
        ):
            assert 1 <= reg[name].count <= res.stats.explored
        assert not math.isnan(reg["bnb_lower_bound_gap"].mean)

    def test_counters_accumulate_across_solves(self, hard_problem):
        reg = MetricsRegistry()
        solver = BranchAndBound(BnBParameters(), obs=Observability(metrics=reg))
        r1 = solver.solve(hard_problem)
        r2 = solver.solve(hard_problem)
        snap = reg.snapshot()
        assert snap["bnb_solves_total"]["value"] == 2
        assert (
            snap["bnb_generated_vertices_total"]["value"]
            == r1.stats.generated + r2.stats.generated
        )
