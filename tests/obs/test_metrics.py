"""Counters, histograms and the registry."""

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.add()
        counter.add(41)
        assert counter.value == 42

    def test_rejects_negative_amounts(self):
        with pytest.raises(ValueError):
            Counter("c").add(-1)


class TestHistogram:
    def test_buckets_values_by_upper_bound(self):
        histogram = Histogram("h", bounds=[1, 2, 4])
        for value in (1, 2, 2, 3, 100):
            histogram.observe(value)
        # <=1: one, <=2: two, <=4: one (the 3), overflow: the 100.
        assert histogram.bucket_counts == [1, 2, 1, 1]
        assert histogram.count == 5
        assert histogram.total == 108
        assert histogram.minimum == 1
        assert histogram.maximum == 100

    def test_bulk_observe_equals_repeated_observe(self):
        bulk = Histogram("bulk", bounds=[2, 8])
        loop = Histogram("loop", bounds=[2, 8])
        bulk.observe(5, count=1000)
        for _ in range(1000):
            loop.observe(5)
        assert bulk.snapshot() == loop.snapshot()

    def test_observe_zero_count_is_a_noop(self):
        histogram = Histogram("h")
        histogram.observe(3, count=0)
        assert histogram.count == 0
        assert histogram.minimum is None

    def test_rejects_negative_count_and_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h").observe(1, count=-1)
        with pytest.raises(ValueError):
            Histogram("h", bounds=[4, 2])

    def test_mean_and_quantiles(self):
        histogram = Histogram("h", bounds=[1, 2, 4, 8])
        for value in [1, 1, 2, 4, 8]:
            histogram.observe(value)
        assert histogram.mean == pytest.approx(16 / 5)
        assert histogram.quantile(0.5) == 2
        assert histogram.quantile(1.0) == 8
        assert Histogram("empty").quantile(0.5) is None
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_overflow_quantile_reports_observed_max(self):
        histogram = Histogram("h", bounds=[1])
        histogram.observe(500)
        assert histogram.quantile(0.99) == 500

    def test_default_buckets_cover_typical_scales(self):
        assert DEFAULT_BUCKETS[0] == 1
        assert DEFAULT_BUCKETS[-1] == 65536

    def test_snapshot_shape(self):
        histogram = Histogram("h", bounds=[2])
        histogram.observe(1)
        histogram.observe(9)
        assert histogram.snapshot() == {
            "count": 2,
            "sum": 10.0,
            "min": 1,
            "max": 9,
            "mean": 5.0,
            "buckets": {"2": 1},
            "overflow": 1,
        }


class TestRegistry:
    def test_create_on_first_use_and_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("a").add(3)
        registry.histogram("h", bounds=[10]).observe(4)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"a": 3}
        assert snapshot["histograms"]["h"]["count"] == 1
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "histograms": {}}

    def test_listings_are_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("z").add(1)
        registry.counter("a").add(1)
        assert list(registry.counters()) == ["a", "z"]

    def test_filtered_view_scopes_by_prefix(self):
        registry = MetricsRegistry()
        registry.counter("chaos.fleet.epochs").add(5)
        registry.counter("placement.batches").add(2)
        registry.histogram("chaos.fleet.damaged").observe(3)
        registry.histogram("placement.batch_size").observe(100)
        view = registry.filtered("chaos.fleet.")
        assert list(view.counters()) == ["chaos.fleet.epochs"]
        assert list(view.histograms()) == ["chaos.fleet.damaged"]
        # Live references, not copies: later increments show through.
        registry.counter("chaos.fleet.epochs").add(1)
        assert view.counters()["chaos.fleet.epochs"] == 6
