"""Tests for the metrics registry (repro.obs.registry)."""

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.obs.registry import (
    NULL_REGISTRY,
    SIM_LATENCY_BUCKETS,
    TIME_BUCKETS,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    deterministic_view,
    get_registry,
    metrics_enabled,
    using_registry,
)


class TestHistogramBuckets:
    def test_bounds_are_inclusive_upper_edges(self):
        hist = Histogram(buckets=(1.0, 2.0, 5.0))
        hist.observe(1.0)  # exactly on the first bound
        hist.observe(2.0)  # exactly on the second
        hist.observe(1.5)  # strictly between first and second
        assert hist.counts == [1, 2, 0]
        assert hist.overflow == 0

    def test_overflow_bucket(self):
        hist = Histogram(buckets=(1.0, 2.0))
        hist.observe(2.0000001)
        hist.observe(100.0)
        assert hist.counts == [0, 0]
        assert hist.overflow == 2

    def test_below_first_bound_lands_in_first_bucket(self):
        hist = Histogram(buckets=(1.0, 2.0))
        hist.observe(-5.0)
        hist.observe(0.0)
        assert hist.counts == [2, 0]

    def test_summary_stats(self):
        hist = Histogram(buckets=(10.0,))
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(6.0)
        assert hist.mean == pytest.approx(2.0)
        assert hist.min == 1.0
        assert hist.max == 3.0

    def test_empty_histogram_mean_is_zero(self):
        hist = Histogram(buckets=(1.0,))
        assert hist.mean == 0.0
        assert hist.min is None and hist.max is None

    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(ConfigurationError):
            Histogram(buckets=(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram(buckets=())

    def test_default_bucket_presets_are_valid(self):
        # The module-level presets must satisfy the Histogram invariant.
        Histogram(buckets=TIME_BUCKETS)
        Histogram(buckets=SIM_LATENCY_BUCKETS)


class TestLabeledSeries:
    def test_same_name_and_labels_merge_into_one_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("net.link.transmissions", link="0", kind="data")
        b = registry.counter("net.link.transmissions", kind="data", link="0")
        assert a is b  # label order must not matter
        a.inc()
        b.inc(2)
        assert registry.counter_value(
            "net.link.transmissions", link="0", kind="data"
        ) == 3

    def test_different_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("family", x="1").inc(1)
        registry.counter("family", x="2").inc(10)
        registry.counter("family").inc(100)
        assert registry.counter_value("family", x="1") == 1
        assert registry.counter_value("family", x="2") == 10
        assert registry.counter_value("family") == 100
        assert registry.counter_total("family") == 111

    def test_histogram_family_shares_bucket_bounds(self):
        registry = MetricsRegistry()
        first = registry.histogram("lat", buckets=(1.0, 2.0), proto="a")
        # A later request with different buckets still gets the family's
        # bounds — one family, one bucket layout.
        second = registry.histogram("lat", buckets=(9.0,), proto="b")
        assert first.buckets == second.buckets == (1.0, 2.0)

    def test_missing_series_reads_zero(self):
        registry = MetricsRegistry()
        assert registry.counter_value("nope") == 0
        assert registry.counter_total("nope") == 0


class TestSnapshotAndReset:
    def test_snapshot_is_sorted_and_json_safe(self):
        import json

        registry = MetricsRegistry()
        registry.counter("b.metric", z="2").inc(5)
        registry.counter("b.metric", z="1").inc(3)
        registry.counter("a.metric").inc()
        registry.gauge("g").set(4.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        names = [entry["name"] for entry in snap["counters"]]
        assert names == ["a.metric", "b.metric", "b.metric"]
        labels = [entry["labels"] for entry in snap["counters"][1:]]
        assert labels == [{"z": "1"}, {"z": "2"}]
        json.dumps(snap)  # must be serializable as-is
        assert registry.to_json() == json.dumps(
            snap, indent=2, sort_keys=True
        )

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(1.0)
        registry.histogram("h", buckets=(1.0,)).observe(0.1)
        registry.reset()
        snap = registry.snapshot()
        assert snap == {"counters": [], "gauges": [], "histograms": []}
        # Old handles are orphaned; a fresh request starts from zero.
        assert registry.counter_value("c") == 0

    def test_write_json_roundtrip(self, tmp_path):
        import json

        registry = MetricsRegistry()
        registry.counter("c", k="v").inc(7)
        out = tmp_path / "metrics.json"
        registry.write_json(str(out))
        data = json.loads(out.read_text())
        assert data["counters"] == [
            {"name": "c", "labels": {"k": "v"}, "value": 7}
        ]


class TestMerge:
    def test_counters_add_gauges_take_newest(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("c", k="v").inc(2)
        right.counter("c", k="v").inc(3)
        right.counter("only_right").inc(1)
        left.gauge("g").set(1.0)
        right.gauge("g").set(9.0)
        left.merge(right)
        assert left.counter_value("c", k="v") == 5
        assert left.counter_value("only_right") == 1
        assert left.gauge("g").value == 9.0

    def test_histograms_merge_bucketwise(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        right.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        right.histogram("h", buckets=(1.0, 2.0)).observe(99.0)
        left.merge(right)
        merged = left.histogram("h", buckets=(1.0, 2.0))
        assert merged.counts == [1, 1]
        assert merged.overflow == 1
        assert merged.count == 3
        assert merged.min == 0.5
        assert merged.max == 99.0

    def test_histogram_bucket_mismatch_raises(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.histogram("h", buckets=(1.0,)).observe(0.5)
        right.histogram("h", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ConfigurationError):
            left.merge(right)

    def test_merge_accepts_snapshot_dict(self):
        # Workers ship plain snapshots across the process boundary; the
        # parent must be able to fold them in without a live registry.
        worker = MetricsRegistry()
        worker.counter("c", k="v").inc(4)
        worker.gauge("g").set(2.5)
        worker.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        parent = MetricsRegistry()
        parent.counter("c", k="v").inc(1)
        parent.merge(worker.snapshot())
        assert parent.counter_value("c", k="v") == 5
        assert parent.gauge("g").value == 2.5
        assert parent.histogram("h", buckets=(1.0, 2.0)).count == 1

    def test_merge_from_dict_equals_merge_from_registry(self):
        source = MetricsRegistry()
        source.counter("c").inc(7)
        source.histogram("h", buckets=(1.0,)).observe(0.2)
        via_registry, via_dict = MetricsRegistry(), MetricsRegistry()
        via_registry.merge(source)
        via_dict.merge(source.snapshot())
        assert via_registry.snapshot() == via_dict.snapshot()

    def test_merge_rejects_malformed_snapshot(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().merge({"counters": []})  # sections missing

    def test_merge_is_associative_on_counters(self):
        snapshots = []
        for value in (1, 2, 3):
            registry = MetricsRegistry()
            registry.counter("c").inc(value)
            snapshots.append(registry.snapshot())
        left_fold, pairwise = MetricsRegistry(), MetricsRegistry()
        for snapshot in snapshots:
            left_fold.merge(snapshot)
        intermediate = MetricsRegistry()
        intermediate.merge(snapshots[1])
        intermediate.merge(snapshots[2])
        pairwise.merge(snapshots[0])
        pairwise.merge(intermediate.snapshot())
        assert left_fold.snapshot() == pairwise.snapshot()


class TestDeterministicView:
    def test_wall_clock_histograms_reduce_to_counts(self):
        registry = MetricsRegistry()
        registry.histogram("crypto.hmac.seconds", buckets=TIME_BUCKETS
                           ).observe(1e-5)
        registry.histogram("sim.latency", buckets=SIM_LATENCY_BUCKETS
                           ).observe(0.01)
        registry.counter("c").inc()
        view = deterministic_view(registry.snapshot())
        wall = [h for h in view["histograms"]
                if h["name"] == "crypto.hmac.seconds"]
        assert wall == [{"name": "crypto.hmac.seconds", "labels": {},
                         "count": 1}]
        # Simulated-time histograms are deterministic and keep everything.
        sim = [h for h in view["histograms"] if h["name"] == "sim.latency"]
        assert "counts" in sim[0] and sim[0]["count"] == 1
        assert view["counters"] == registry.snapshot()["counters"]

    def test_view_does_not_mutate_the_snapshot(self):
        registry = MetricsRegistry()
        registry.histogram("t", buckets=TIME_BUCKETS).observe(0.5)
        snapshot = registry.snapshot()
        before = json.dumps(snapshot, sort_keys=True)
        deterministic_view(snapshot)
        assert json.dumps(snapshot, sort_keys=True) == before


class TestActiveRegistry:
    def test_default_is_null_registry(self):
        assert get_registry() is NULL_REGISTRY
        assert not metrics_enabled()

    def test_null_registry_instruments_are_shared_noops(self):
        null = NullRegistry()
        counter = null.counter("anything", a="b")
        assert counter is null.counter("else")
        counter.inc(100)
        assert counter.value == 0
        null.gauge("g").set(5.0)
        null.histogram("h").observe(1.0)
        assert null.snapshot() == {
            "counters": [], "gauges": [], "histograms": []
        }
        assert not null.enabled

    def test_using_registry_restores_previous(self):
        registry = MetricsRegistry()
        with using_registry(registry) as active:
            assert active is registry
            assert get_registry() is registry
            assert metrics_enabled()
        assert get_registry() is NULL_REGISTRY

    def test_using_registry_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with using_registry(MetricsRegistry()):
                raise RuntimeError("boom")
        assert get_registry() is NULL_REGISTRY

    def test_nested_contexts(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with using_registry(outer):
            with using_registry(inner):
                assert get_registry() is inner
            assert get_registry() is outer
        assert get_registry() is NULL_REGISTRY
