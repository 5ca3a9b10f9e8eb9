"""Unit tests for the metric primitives and the registry (PR 9)."""

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    CounterMapView,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = Counter("x_total")
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.value == 0.0


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("x")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13.0

    def test_set_max_keeps_high_water_mark(self):
        g = Gauge("x")
        g.set_max(4)
        g.set_max(2)
        assert g.value == 4.0


class TestHistogram:
    def test_count_and_sum(self):
        h = Histogram("lat")
        for v in (0.001, 0.002, 0.004):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(0.007)

    def test_empty_quantile_is_zero(self):
        assert Histogram("lat").quantile(0.5) == 0.0

    def test_quantile_is_bucket_upper_bound(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 0.6, 1.5, 3.0):
            h.observe(v)
        # ranks: p50 -> 2nd sample (bucket <=1.0), p95 -> 4th (bucket <=4.0)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(0.95) == 4.0

    def test_overflow_bucket_reports_observed_max(self):
        h = Histogram("lat", buckets=(1.0,))
        h.observe(7.5)
        assert h.quantile(0.99) == 7.5

    def test_bucket_counts_cumulative_with_inf(self):
        h = Histogram("lat", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 9.0):
            h.observe(v)
        assert h.bucket_counts() == [(1.0, 1), (2.0, 2), (float("inf"), 3)]

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(2.0, 1.0))

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("lat").quantile(1.5)

    def test_default_buckets_cover_latency_decades(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == 0.0001
        assert DEFAULT_LATENCY_BUCKETS[-1] == 10.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("hits_total", "help text")
        b = registry.counter("hits_total")
        assert a is b
        assert registry.get("hits_total") is a

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("x")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.histogram("x")

    def test_register_adopts_external_instrument(self):
        registry = MetricsRegistry()
        c = registry.register(Counter("adopted_total"))
        assert registry.get("adopted_total") is c
        registry.register(c)  # same object is idempotent
        with pytest.raises(ValueError, match="already registered"):
            registry.register(Counter("adopted_total"))

    def test_register_requires_name(self):
        with pytest.raises(ValueError, match="name"):
            MetricsRegistry().register(object())

    def test_counters_family_named_by_pattern(self):
        registry = MetricsRegistry()
        family = registry.counters("minidb_x_{}_total", ("a", "b"), "x count")
        family["a"].inc(2)
        assert registry.get("minidb_x_a_total") is family["a"]
        assert registry.get("minidb_x_b_total").help == "x count: b"
        assert registry.counters("minidb_x_{}_total", ("a",))["a"] is family["a"]
        assert dict(CounterMapView(family)) == {"a": 2, "b": 0}

    def test_samples_expand_histograms(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(2)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        names = {name: (kind, value) for name, kind, value in registry.samples()}
        assert names["c_total"] == ("counter", 2.0)
        assert names["lat_count"] == ("histogram", 1.0)
        assert names["lat_sum"] == ("histogram", 0.5)
        assert names["lat_p50"] == ("histogram", 1.0)
        assert "lat_p95" in names

    def test_render_text_prometheus_format(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "number of hits").inc(3)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        registry.gauge("live", "live things").set(2)
        text = registry.render_text()
        assert "# HELP hits_total number of hits" in text
        assert "# TYPE hits_total counter" in text
        assert "hits_total 3" in text  # integers render without .0
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text
        assert "# TYPE live gauge" in text
        assert "live 2" in text
        assert text.endswith("\n")


class TestCounterMapView:
    def test_mapping_protocol(self):
        counters = {"a": Counter("a"), "b": Counter("b")}
        counters["a"].inc(2)
        view = CounterMapView(counters)
        assert view["a"] == 2
        assert view["b"] == 0
        assert set(view) == {"a", "b"}
        assert len(view) == 2
        assert dict(view) == {"a": 2, "b": 0}

    def test_view_is_read_only(self):
        view = CounterMapView({"a": Counter("a")})
        with pytest.raises(TypeError):
            view["a"] = 5  # type: ignore[index]

    def test_view_reflects_live_counter(self):
        counter = Counter("a")
        view = CounterMapView({"a": counter})
        counter.inc(7)
        assert view["a"] == 7


class TestThreadSafety:
    def test_concurrent_counter_increments(self):
        counter = Counter("x_total")

        def worker():
            for _ in range(1_000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8_000

    def test_concurrent_histogram_observes(self):
        hist = Histogram("lat")

        def worker():
            for _ in range(500):
                hist.observe(0.001)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.count == 4_000
        assert hist.sum == pytest.approx(4.0)

    def test_concurrent_get_or_create_single_instance(self):
        registry = MetricsRegistry()
        seen = []

        def worker():
            seen.append(registry.counter("shared_total"))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(c is seen[0] for c in seen)
