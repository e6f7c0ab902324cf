"""Tests for the metrics registry: counters, gauges, histograms."""

import math
import threading

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    delay_buckets,
)
from repro.obs.metrics import OVERFLOW_LABEL


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5
        assert counter.total() == 3.5

    def test_negative_increment_rejected(self):
        counter = Counter("c_total")
        with pytest.raises(MetricError, match="cannot decrease"):
            counter.inc(-1)

    def test_labelled_series(self):
        counter = Counter("denied_total", label_names=("reason",))
        counter.inc(reason="quota")
        counter.inc(reason="quota")
        counter.inc(reason="rate")
        assert counter.value(reason="quota") == 2
        assert counter.value(reason="rate") == 1
        assert counter.value(reason="never") == 0
        assert counter.total() == 3

    def test_missing_and_extra_labels_rejected(self):
        counter = Counter("denied_total", label_names=("reason",))
        with pytest.raises(MetricError, match="requires labels"):
            counter.inc()
        with pytest.raises(MetricError, match="does not accept"):
            counter.inc(reason="x", extra="y")

    def test_series_overflow_folds_into_other(self):
        counter = Counter(
            "per_identity_total", label_names=("identity",), max_series=3
        )
        for index in range(10):
            counter.inc(identity=f"user{index}")
        # Memory stays bounded; the total stays exact.
        assert len(counter.series()) <= 4  # 3 real + _other
        assert counter.total() == 10
        assert counter.value(identity=OVERFLOW_LABEL) > 0

    def test_invalid_name_rejected(self):
        with pytest.raises(MetricError, match="not a valid identifier"):
            Counter("bad name")

    def test_render_prometheus_lines(self):
        counter = Counter("denied_total", label_names=("reason",))
        counter.inc(reason="quota")
        assert counter.render() == ['denied_total{reason="quota"} 1']

    def test_thread_safety_no_lost_increments(self):
        counter = Counter("c_total")
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(1000)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value() == 8000


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("inflight")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert gauge.value() == 4

    def test_callback_backed(self):
        state = {"n": 7}
        gauge = Gauge("population").set_function(lambda: state["n"])
        assert gauge.value() == 7
        state["n"] = 9
        assert gauge.value() == 9
        with pytest.raises(MetricError, match="callback-backed"):
            gauge.set(1)

    def test_raising_callback_skipped_not_fatal(self):
        gauge = Gauge("weird").set_function(lambda: 1 / 0)
        assert gauge.render() == []
        registry = MetricsRegistry()
        registry.register(gauge)
        # The scrape survives the broken callback.
        assert "weird" not in registry.render_prometheus()

    def test_labelled_callback_rejected(self):
        gauge = Gauge("g", label_names=("k",))
        with pytest.raises(MetricError, match="unlabelled"):
            gauge.set_function(lambda: 1.0)

    def test_callback_per_labelled_series(self):
        state = {"a": 1, "b": 2}
        counter = Counter("events_total", label_names=("event",))
        for name in state:
            counter.set_function(lambda key=name: state[key], event=name)
        counter.inc(5, event="written")
        state["b"] = 7
        assert counter.value(event="b") == 7
        assert counter.value(event="written") == 5
        assert counter.total() == 13
        assert counter.series() == [
            ({"event": "written"}, 5.0),
            ({"event": "a"}, 1.0),
            ({"event": "b"}, 7.0),
        ]
        assert counter.snapshot()["total"] == 13
        assert 'events_total{event="b"} 7' in counter.render()
        with pytest.raises(MetricError, match="callback-backed"):
            counter.inc(event="a")
        # one broken series does not take the others down
        counter.set_function(lambda: 1 / 0, event="a")
        assert [labels for labels, _ in counter.series()] == [
            {"event": "written"},
            {"event": "b"},
        ]


class TestHistogram:
    def test_count_sum_min_max_exact(self):
        histogram = Histogram("h")
        for value in [0.0, 0.5, 2.0, 2.0, 100.0]:
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(104.5)
        assert histogram.min == 0.0
        assert histogram.max == 100.0
        assert histogram.mean() == pytest.approx(104.5 / 5)

    def test_quantiles_exact_for_distinct_buckets(self):
        histogram = Histogram("h")
        histogram.observe_many([4.0, 1.0, 3.0, 2.0])
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(0.5) == 2.0
        assert histogram.quantile(1.0) == 4.0

    def test_quantile_bounded_error_within_bucket(self):
        histogram = Histogram("h")
        # 1.0 and 1.1 share a bucket (10 buckets/decade ≈ 26% wide):
        # the estimate is the bucket mean, clamped to [min, max].
        histogram.observe_many([1.0, 1.1])
        estimate = histogram.quantile(0.5)
        assert 1.0 <= estimate <= 1.1

    def test_empty_histogram(self):
        histogram = Histogram("h")
        assert histogram.count == 0
        assert histogram.quantile(0.5) == 0.0
        assert histogram.min == 0.0
        assert histogram.max == 0.0

    def test_zero_has_its_own_bucket(self):
        histogram = Histogram("h")
        histogram.observe_many([0.0] * 99 + [50.0])
        assert histogram.quantile(0.5) == 0.0
        assert histogram.quantile(1.0) == 50.0

    def test_quantile_out_of_range(self):
        histogram = Histogram("h")
        with pytest.raises(MetricError, match="quantile"):
            histogram.quantile(1.5)

    def test_nan_rejected(self):
        histogram = Histogram("h")
        with pytest.raises(MetricError, match="NaN"):
            histogram.observe(float("nan"))

    def test_memory_bounded_regardless_of_observations(self):
        histogram = Histogram("h")
        buckets = len(histogram.bucket_bounds()) + 1
        for index in range(10_000):
            histogram.observe(index % 97 * 0.01)
        assert len(histogram._counts) == buckets
        assert histogram.count == 10_000

    def test_observe_many_matches_observe_one_by_one(self):
        # observe_many buckets as arrays; observe is the reference.
        values = [0.0, 1e-4, 1e-4, 0.25, 3.0, 3.0, 1e-7, 99.0, 1e6, 5e-3]
        batched, one_by_one = Histogram("b"), Histogram("o")
        batched.observe_many(values)
        batched.observe_many([])
        for value in values:
            one_by_one.observe(value)
        assert batched.cumulative_buckets() == one_by_one.cumulative_buckets()
        assert (batched.count, batched.min, batched.max) == (
            one_by_one.count,
            one_by_one.min,
            one_by_one.max,
        )
        assert batched.sum == pytest.approx(one_by_one.sum, rel=1e-12)
        for q in (0.1, 0.5, 0.9):
            assert batched.quantile(q) == pytest.approx(
                one_by_one.quantile(q), rel=1e-12
            )
        with pytest.raises(MetricError, match="NaN"):
            batched.observe_many([1.0, float("nan")])
        assert batched.count == len(values)

    def test_defer_to_runs_one_source_before_reads(self):
        histogram = Histogram("d")
        pending = [[0.5], [2.0]]
        histogram.defer_to(lambda: histogram.observe_many(pending.pop(0)))
        histogram.defer_to(lambda: histogram.observe_many(pending.pop()))
        assert histogram.count == 1  # only the later source ran
        assert histogram.max == 2.0 and pending == []

    def test_render_cumulative_buckets(self):
        histogram = Histogram("h", buckets=[1.0, 10.0])
        histogram.observe_many([0.5, 5.0, 50.0])
        lines = histogram.render()
        assert 'h_bucket{le="1"} 1' in lines
        assert 'h_bucket{le="10"} 2' in lines
        assert 'h_bucket{le="+Inf"} 3' in lines
        assert "h_count 3" in lines

    def test_snapshot_materialises_only_touched_buckets(self):
        histogram = Histogram("h")
        histogram.observe_many([1.0, 1.0, 500.0])
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 3
        assert len(snapshot["buckets"]) == 2
        assert snapshot["quantiles"]["p50"] == 1.0

    def test_bad_bucket_bounds_rejected(self):
        with pytest.raises(MetricError, match="ascending"):
            Histogram("h", buckets=[1.0, 1.0])
        with pytest.raises(MetricError, match="finite"):
            Histogram("h", buckets=[1.0, math.inf])

    def test_delay_buckets_layout(self):
        bounds = delay_buckets()
        assert bounds[0] == 0.0
        assert bounds[1] == pytest.approx(1e-4)
        assert bounds[-1] == pytest.approx(1e5)
        assert bounds == sorted(bounds)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total")
        second = registry.counter("c_total")
        assert first is second

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricError, match="already registered"):
            registry.gauge("x")
        with pytest.raises(MetricError, match="already registered"):
            registry.histogram("x")

    def test_label_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", label_names=("a",))
        with pytest.raises(MetricError, match="labels"):
            registry.counter("x", label_names=("b",))

    def test_register_adopts_external_metric(self):
        registry = MetricsRegistry()
        histogram = Histogram("delays")
        assert registry.register(histogram) is histogram
        assert registry.get("delays") is histogram
        # Re-registering the same object is a no-op; a different object
        # under the same name is an error.
        registry.register(histogram)
        with pytest.raises(MetricError, match="already registered"):
            registry.register(Histogram("delays"))

    def test_to_json_and_prometheus_cover_all(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "help a").inc(3)
        registry.gauge("b").set(1.5)
        registry.histogram("c").observe(2.0)
        payload = registry.to_json()
        assert set(payload) == {"a_total", "b", "c"}
        text = registry.render_prometheus()
        assert "# HELP a_total help a" in text
        assert "# TYPE a_total counter" in text
        assert "a_total 3" in text
        assert "b 1.5" in text
        assert "c_count 1" in text
