"""Metrics registry unit tests: kinds, labels, snapshots, exposition."""

import json
import math
import threading

import pytest

from repro.observability import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    MetricsSnapshot,
    get_registry,
    snapshot_histogram_quantile,
    snapshot_value,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        c = registry.counter("ops_total", "ops", labels=("op",))
        c.inc(op="read")
        c.inc(3, op="read")
        c.inc(op="write")
        snap = registry.snapshot()
        assert snap.value("ops_total", op="read") == 4
        assert snap.value("ops_total") == 5  # partial labels sum all series

    def test_negative_increment_rejected(self, registry):
        c = registry.counter("bad_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_wrong_label_schema_rejected(self, registry):
        c = registry.counter("ops_total", labels=("op",))
        with pytest.raises(ValueError):
            c.inc(kind="read")


class TestHistogram:
    def test_observe_and_stats(self, registry):
        h = registry.histogram("lat_seconds")
        for v in (0.002, 0.002, 0.2):
            h.observe(v)
        (series,) = registry.snapshot().to_json()["lat_seconds"]["series"]
        assert series["count"] == 3
        assert series["sum"] == pytest.approx(0.204)

    def test_quantile_interpolates(self, registry):
        h = registry.histogram("lat_seconds", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 3.5):
            h.observe(v)
        registry.histogram("empty_seconds")
        snap = registry.snapshot()
        assert 1.0 <= snap.quantile("lat_seconds", 0.5) <= 2.0
        assert math.isnan(snap.quantile("empty_seconds", 0.5))

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_get_or_create_returns_same_object(self, registry):
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_kind_conflict_rejected(self, registry):
        registry.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total")

    def test_label_schema_conflict_rejected(self, registry):
        registry.counter("x_total", labels=("a",))
        with pytest.raises(ValueError, match="labels"):
            registry.counter("x_total", labels=("b",))

    def test_counter_value_missing_metric_is_zero(self, registry):
        assert registry.snapshot().value("nope_total") == 0.0

    def test_global_registry_is_shared(self):
        assert get_registry() is get_registry()

    def test_concurrent_increments(self, registry):
        c = registry.counter("n_total")

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.snapshot().value("n_total") == 8000


class TestSnapshot:
    def test_snapshot_is_frozen_copy(self, registry):
        c = registry.counter("n_total")
        c.inc()
        snap = registry.snapshot()
        c.inc(10)
        assert snap.value("n_total") == 1
        assert registry.snapshot().value("n_total") == 11

    def test_delta_subtracts_counters_keeps_gauges(self, registry):
        c = registry.counter("n_total")
        g = registry.gauge("level")
        c.inc(3)
        g.set(7)
        before = registry.snapshot()
        c.inc(2)
        g.set(9)
        delta = registry.snapshot().delta(before)
        assert delta.value("n_total") == 2
        assert delta.value("level") == 9  # a gauge is a level, not a flow

    def test_delta_drops_idle_series(self, registry):
        c = registry.counter("n_total", labels=("k",))
        c.inc(k="busy")
        c.inc(k="idle")
        before = registry.snapshot()
        c.inc(k="busy")
        delta = registry.snapshot().delta(before)
        assert delta.value("n_total", k="busy") == 1
        assert delta.value("n_total", k="idle") == 0

    def test_delta_histogram_subtracts(self, registry):
        h = registry.histogram("lat_seconds")
        h.observe(0.01)
        before = registry.snapshot()
        h.observe(0.02)
        h.observe(0.03)
        entry = registry.snapshot().delta(before).to_json()["lat_seconds"]
        assert entry["series"][0]["count"] == 2

    def test_json_roundtrip(self, registry):
        registry.counter("n_total", "help text", labels=("k",)).inc(k="a")
        payload = json.loads(json.dumps(registry.snapshot().to_json()))
        assert snapshot_value(payload, "n_total", k="a") == 1
        assert MetricsSnapshot(payload).value("n_total") == 1


class TestPrometheusText:
    def test_counter_exposition(self, registry):
        registry.counter("ops_total", "Operations", labels=("op",)).inc(op="read")
        text = registry.snapshot().to_prometheus()
        assert "# HELP ops_total Operations" in text
        assert "# TYPE ops_total counter" in text
        assert 'ops_total{op="read"} 1' in text

    def test_histogram_buckets_cumulative(self, registry):
        h = registry.histogram("lat_seconds", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(5.0)
        text = registry.snapshot().to_prometheus()
        assert 'lat_seconds_bucket{le="1.0"} 1' in text
        assert 'lat_seconds_bucket{le="2.0"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text

    def test_label_values_escaped(self, registry):
        registry.counter("n_total", labels=("path",)).inc(path='a"b\nc')
        text = registry.snapshot().to_prometheus()
        assert 'path="a\\"b\\nc"' in text


class TestSnapshotHistogramQuantile:
    """Edge cases of the exported-snapshot quantile estimator."""

    def _snap(self, registry):
        return registry.snapshot().to_json()

    def test_empty_histogram_is_nan(self, registry):
        registry.histogram("lat_seconds", buckets=(1.0, 2.0))
        snap = self._snap(registry)
        for q in (0.0, 0.5, 1.0):
            assert math.isnan(snapshot_histogram_quantile(
                snap, "lat_seconds", q))

    def test_absent_metric_is_nan(self, registry):
        assert math.isnan(snapshot_histogram_quantile(
            self._snap(registry), "never_observed", 0.5))

    def test_non_histogram_metric_is_nan(self, registry):
        registry.counter("ops_total").inc()
        assert math.isnan(snapshot_histogram_quantile(
            self._snap(registry), "ops_total", 0.5))

    def test_single_bucket_histogram(self, registry):
        h = registry.histogram("lat_seconds", buckets=(1.0,))
        h.observe(0.25)
        h.observe(0.75)
        snap = self._snap(registry)
        p50 = snapshot_histogram_quantile(snap, "lat_seconds", 0.5)
        assert 0.0 <= p50 <= 1.0
        # Everything beyond the only finite bound clamps to it.
        assert snapshot_histogram_quantile(snap, "lat_seconds", 1.0) == 1.0

    def test_p0_and_p100_bounds(self, registry):
        h = registry.histogram("lat_seconds", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0):
            h.observe(v)
        snap = self._snap(registry)
        p0 = snapshot_histogram_quantile(snap, "lat_seconds", 0.0)
        p100 = snapshot_histogram_quantile(snap, "lat_seconds", 1.0)
        assert p0 == 0.0
        assert p100 == 4.0  # last finite bound containing an observation
        assert p0 <= snapshot_histogram_quantile(snap, "lat_seconds", 0.5) \
            <= p100

    def test_single_observation_all_quantiles_in_its_bucket(self, registry):
        h = registry.histogram("lat_seconds", buckets=(1.0, 2.0, 4.0))
        h.observe(1.5)  # lands in the (1.0, 2.0] bucket
        snap = self._snap(registry)
        for q in (0.0, 0.01, 0.5, 0.99, 1.0):
            estimate = snapshot_histogram_quantile(snap, "lat_seconds", q)
            assert 1.0 <= estimate <= 2.0, q

    def test_overflow_only_observation_clamps_to_last_finite(self, registry):
        h = registry.histogram("lat_seconds", buckets=(1.0, 2.0))
        h.observe(100.0)  # +Inf bucket only
        snap = self._snap(registry)
        assert snapshot_histogram_quantile(snap, "lat_seconds", 0.5) == 2.0

    def test_quantile_outside_unit_interval_rejected(self, registry):
        registry.histogram("lat_seconds").observe(0.1)
        snap = self._snap(registry)
        with pytest.raises(ValueError):
            snapshot_histogram_quantile(snap, "lat_seconds", 1.5)
        with pytest.raises(ValueError):
            snapshot_histogram_quantile(snap, "lat_seconds", -0.1)

    def test_label_filtered_series_merge(self, registry):
        h = registry.histogram("lat_seconds", labels=("op",), buckets=(1.0, 2.0))
        h.observe(0.5, op="read")
        h.observe(1.5, op="write")
        snap = self._snap(registry)
        read_p100 = snapshot_histogram_quantile(
            snap, "lat_seconds", 1.0, op="read")
        assert read_p100 == 1.0
        merged_p100 = snapshot_histogram_quantile(snap, "lat_seconds", 1.0)
        assert merged_p100 == 2.0
        assert math.isnan(snapshot_histogram_quantile(
            snap, "lat_seconds", 0.5, op="delete"))
