"""Unit tests for the metrics registry and its export faces."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    delta_values,
)


class TestRegistration:
    def test_counter_get_or_create_is_identity(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_test_total", "help text")
        b = reg.counter("repro_test_total")
        assert a is b
        a.inc()
        a.inc(2.5)
        assert b.value == 3.5

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_labeled_total", node="n1", role="tx")
        b = reg.counter("repro_labeled_total", role="tx", node="n1")
        c = reg.counter("repro_labeled_total", role="rx", node="n1")
        assert a is b
        assert a is not c

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_pinned")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("repro_pinned")
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("repro_pinned")

    def test_histogram_buckets_pinned_per_name(self):
        reg = MetricsRegistry()
        a = reg.histogram("repro_lat_seconds", buckets=(1.0, 2.0))
        b = reg.histogram("repro_lat_seconds", node="n1")
        assert a.buckets == (1.0, 2.0)
        assert b.buckets == (1.0, 2.0)  # later series inherit the pin

    def test_slots_keep_series_lean(self):
        for cls, args in ((Counter, ("c",)), (Gauge, ("g",)),
                          (Histogram, ("h",))):
            obj = cls(*args)
            with pytest.raises(AttributeError):
                obj.surprise = 1


class TestValuesAndDeltas:
    def test_gauge_reports_counter_subtracts(self):
        reg = MetricsRegistry()
        runs = reg.counter("repro_runs_total")
        depth = reg.gauge("repro_depth")
        lat = reg.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        before = reg.values()
        runs.inc(3)
        depth.set(7.0)
        lat.observe(0.05)
        lat.observe(0.5)
        delta = delta_values(before, reg.values())
        assert delta["repro_runs_total"] == 3
        assert delta["repro_depth"] == 7.0  # gauges report, not subtract
        assert delta["repro_lat_seconds:count"] == 2
        assert delta["repro_lat_seconds:sum"] == pytest.approx(0.55)

    def test_zero_deltas_are_dropped(self):
        reg = MetricsRegistry()
        reg.counter("repro_idle_total")
        moved = reg.counter("repro_busy_total")
        before = reg.values()
        moved.inc()
        delta = delta_values(before, reg.values())
        assert "repro_idle_total" not in delta
        assert delta == {"repro_busy_total": 1.0}


class TestPrometheusRendering:
    def test_counter_gauge_text(self):
        reg = MetricsRegistry()
        reg.counter("repro_runs_total", "Runs completed").inc(2)
        reg.gauge("repro_depth", node="n1").set(4.0)
        text = reg.render_prometheus()
        assert "# HELP repro_runs_total Runs completed" in text
        assert "# TYPE repro_runs_total counter" in text
        assert "repro_runs_total 2" in text
        assert 'repro_depth{node="n1"} 4' in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        hist = reg.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.05, 0.5, 5.0):
            hist.observe(value)
        lines = reg.render_prometheus().splitlines()
        assert 'repro_lat_seconds_bucket{le="0.1"} 2' in lines
        assert 'repro_lat_seconds_bucket{le="1"} 3' in lines
        assert 'repro_lat_seconds_bucket{le="+Inf"} 4' in lines
        assert "repro_lat_seconds_count 4" in lines
        assert any(line.startswith("repro_lat_seconds_sum ")
                   for line in lines)

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("repro_esc_total", path='we"ird\\path\n').inc()
        text = reg.render_prometheus()
        assert r'path="we\"ird\\path\n"' in text

    def test_snapshot_is_json_able(self):
        reg = MetricsRegistry()
        reg.counter("repro_runs_total").inc()
        reg.histogram("repro_lat_seconds",
                      buckets=DEFAULT_BUCKETS).observe(0.01)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["repro_runs_total"]["samples"][0]["value"] == 1
        hist = snap["repro_lat_seconds"]["samples"][0]
        assert hist["count"] == 1
        assert "+Inf" in hist["buckets"]
