"""Tests for the unified metrics registry (repro.obs.metrics)."""

import pickle

import pytest

from repro.engine.session import SessionStats
from repro.obs.metrics import (
    Counter,
    CounterGroup,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)


class TestPrimitives:
    def test_counter_inc_and_set(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.snapshot() == 5
        counter.set(2)
        assert counter.value == 2

    def test_gauge_set(self):
        gauge = Gauge("g")
        gauge.set(3.5)
        assert gauge.snapshot() == 3.5

    def test_histogram_aggregates(self):
        histogram = Histogram("h")
        for value in (2.0, 1.0, 4.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot == {
            "count": 3,
            "total": 7.0,
            "min": 1.0,
            "max": 4.0,
            "mean": 7.0 / 3,
        }

    def test_empty_histogram_has_no_mean(self):
        assert Histogram("h").snapshot()["mean"] is None


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert len(registry) == 1

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_snapshot_groups_by_kind_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.counter("a").inc(1)
        registry.gauge("depth").set(7)
        registry.histogram("lat").observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "b"]
        assert snapshot["counters"]["b"] == 2
        assert snapshot["gauges"] == {"depth": 7}
        assert snapshot["histograms"]["lat"]["count"] == 1

    def test_merge_snapshot_restores_values(self):
        registry = MetricsRegistry()
        registry.merge_snapshot(
            {"counters": {"jobs": 9}, "gauges": {"rss": 1.5}}
        )
        assert registry.counter("jobs").value == 9
        assert registry.gauge("rss").value == 1.5

    def test_merge_snapshot_folds_histograms_additively(self):
        registry = MetricsRegistry()
        registry.histogram("lat").observe(2.0)
        registry.merge_snapshot(
            {
                "histograms": {
                    "lat": {
                        "count": 2,
                        "total": 4.0,
                        "min": 1.0,
                        "max": 3.0,
                        "mean": 2.0,
                    }
                }
            }
        )
        merged = registry.histogram("lat").snapshot()
        assert merged["count"] == 3
        assert merged["total"] == 6.0
        assert merged["min"] == 1.0 and merged["max"] == 3.0
        assert merged["mean"] == 2.0
        # An empty payload is a no-op, not a min/max reset.
        registry.merge_snapshot(
            {
                "histograms": {
                    "lat": {
                        "count": 0,
                        "total": 0.0,
                        "min": None,
                        "max": None,
                        "mean": None,
                    }
                }
            }
        )
        assert registry.histogram("lat").snapshot() == merged

    def test_registry_pickles_without_lock_trouble(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(3)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.counter("n").value == 3
        clone.counter("n").inc()  # the re-created lock works
        assert registry.counter("n").value == 3  # and they are detached

    def test_global_registry_is_shared(self):
        assert global_registry() is global_registry()


class _DemoStats(CounterGroup):
    _prefix = "demo."
    _fields = ("hits", "misses")


class TestCounterGroup:
    def test_attribute_surface_matches_dataclass_idiom(self):
        stats = _DemoStats()
        assert stats.hits == 0
        stats.hits += 3
        stats.misses = 2
        assert stats.as_dict() == {"hits": 3, "misses": 2}
        assert "hits=3" in repr(stats)

    def test_keyword_construction_and_equality(self):
        assert _DemoStats(hits=1) == _DemoStats(hits=1)
        assert _DemoStats(hits=1) != _DemoStats(hits=2)
        with pytest.raises(TypeError, match="unexpected"):
            _DemoStats(nonsense=1)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            _DemoStats().nonsense

    def test_view_writes_through_to_registry(self):
        registry = MetricsRegistry()
        stats = _DemoStats(registry=registry)
        stats.hits += 5
        assert registry.counter("demo.hits").value == 5
        assert registry.snapshot()["counters"]["demo.hits"] == 5

    def test_attach_over_used_registry_resets_all_fields(self):
        registry = MetricsRegistry()
        registry.counter("demo.hits").set(99)
        stats = _DemoStats(registry=registry, misses=1)
        # Constructor semantics match a dataclass: every declared field
        # starts at its given value or zero, stale registry state loses.
        assert stats.hits == 0
        assert stats.misses == 1

    def test_pickle_detaches_from_live_registry(self):
        registry = MetricsRegistry()
        stats = _DemoStats(registry=registry, hits=4)
        frozen = pickle.loads(pickle.dumps(stats))
        stats.hits += 10
        assert frozen.hits == 4  # the copy kept its values
        assert frozen == _DemoStats(hits=4)
        assert frozen.registry is not registry

    def test_reset_zeroes_every_field(self):
        stats = _DemoStats(hits=3, misses=8)
        stats.reset()
        assert stats.as_dict() == {"hits": 0, "misses": 0}


class TestLegacyViews:
    def test_session_stats_keeps_its_schema(self):
        stats = SessionStats(full_recounts=2)
        stats.delta_updates += 1
        assert stats.full_recounts == 2
        assert "full_recounts=2" in stats.summary()
        assert stats.registry.snapshot()["counters"][
            "session.delta_updates"
        ] == 1
