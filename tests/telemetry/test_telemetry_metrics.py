"""Registry semantics: instruments, snapshots, and cross-process merging."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    NULL_REGISTRY,
    SNAPSHOT_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
    merge_snapshots,
)


class TestLogBuckets:
    def test_strictly_increasing_and_covering(self):
        bounds = log_buckets(1e-5, 1e3, per_decade=3)
        assert list(bounds) == sorted(set(bounds))
        assert bounds[0] <= 1e-5
        assert bounds[-1] >= 1e3

    def test_three_significant_digits(self):
        for bound in log_buckets(1.0, 1e4, per_decade=3):
            assert float(f"{bound:.3g}") == bound

    def test_defaults_are_log_buckets(self):
        assert DEFAULT_TIME_BUCKETS == log_buckets(1e-5, 1e3, per_decade=3)
        assert DEFAULT_SIZE_BUCKETS == log_buckets(1.0, 1e8, per_decade=3)

    @pytest.mark.parametrize("bad", [(0.0, 1.0), (2.0, 1.0), (1.0, float("inf"))])
    def test_rejects_bad_range(self, bad):
        with pytest.raises(ConfigurationError):
            log_buckets(*bad)

    def test_rejects_bad_per_decade(self):
        with pytest.raises(ConfigurationError):
            log_buckets(1.0, 10.0, per_decade=0)


class TestInstruments:
    def test_counter_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            Counter().inc(-1.0)

    def test_gauge_sets_and_adjusts(self):
        gauge = Gauge()
        gauge.set(7.0)
        gauge.inc(-2.0)
        assert gauge.value == 5.0

    def test_histogram_bucket_placement(self):
        histogram = Histogram(bounds=(1.0, 10.0, 100.0))
        # A value equal to a bound belongs to that bound's bucket
        # (Prometheus buckets are (lo, hi] inclusive on the right).
        histogram.observe(1.0)
        histogram.observe(5.0)
        histogram.observe(1000.0)  # overflows into +Inf
        assert histogram.counts == [1, 1, 0, 1]
        assert histogram.count == 3
        assert histogram.sum == 1006.0

    def test_histogram_observe_many_equals_repeated_observe(self):
        values = [0.1, 1.0, 5.0, 3.3, 1000.0, 0.7]
        one_by_one = Histogram(bounds=(1.0, 10.0, 100.0))
        for value in values:
            one_by_one.observe(value)
        batched = Histogram(bounds=(1.0, 10.0, 100.0))
        batched.observe_many(iter(values))
        batched.observe_many([])
        assert batched.counts == one_by_one.counts
        assert batched.count == one_by_one.count == len(values)
        assert batched.sum == one_by_one.sum  # same additions, same order

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ConfigurationError):
            Histogram(bounds=(1.0, 1.0, 2.0))
        with pytest.raises(ConfigurationError):
            Histogram(bounds=())


class TestFamilies:
    def test_labels_memoize_children(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_t_total", "t", labels=("kind",))
        assert family.labels(kind="a") is family.labels(kind="a")
        assert family.labels(kind="a") is not family.labels(kind="b")

    def test_wrong_label_set_raises(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_t_total", "t", labels=("kind",))
        with pytest.raises(ConfigurationError):
            family.labels(other="a")

    def test_unlabeled_family_proxies_instrument(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total").inc(2)
        registry.gauge("repro_g").set(4)
        registry.histogram("repro_h_seconds").observe(0.5)
        metrics = registry.snapshot()["metrics"]
        assert metrics["repro_c_total"]["samples"][0]["value"] == 2.0
        assert metrics["repro_g"]["samples"][0]["value"] == 4.0
        assert metrics["repro_h_seconds"]["samples"][0]["count"] == 1

    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_t_total", "t", labels=("kind",))
        again = registry.counter("repro_t_total", "t", labels=("kind",))
        assert first is again

    def test_conflicting_registration_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_total", "t")
        with pytest.raises(ConfigurationError):
            registry.gauge("repro_t_total", "t")
        with pytest.raises(ConfigurationError):
            registry.counter("repro_t_total", "t", labels=("kind",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("1starts_with_digit")
        with pytest.raises(ConfigurationError):
            registry.counter("has-dash")
        with pytest.raises(ConfigurationError):
            registry.counter("repro_ok_total", labels=("bad-label",))


def _sample_registry(seed: float) -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("repro_events_total", "events", labels=("kind",)).labels(
        kind="a"
    ).inc(seed)
    registry.gauge("repro_level", "level").set(seed * 10)
    registry.histogram(
        "repro_wait_seconds", "wait", buckets=(0.1, 1.0, 10.0)
    ).observe(seed)
    return registry


class TestSnapshotsAndMerge:
    def test_snapshot_is_byte_stable(self):
        a = _sample_registry(2.0).snapshot()
        b = _sample_registry(2.0).snapshot()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["version"] == SNAPSHOT_VERSION

    def test_merge_counters_sum_histograms_add_gauges_last(self):
        merged = merge_snapshots(
            [_sample_registry(1.0).snapshot(), _sample_registry(2.0).snapshot()]
        )
        metrics = merged["metrics"]
        assert metrics["repro_events_total"]["samples"][0]["value"] == 3.0
        assert metrics["repro_level"]["samples"][0]["value"] == 20.0
        histogram = metrics["repro_wait_seconds"]["samples"][0]
        assert histogram["count"] == 2
        assert histogram["sum"] == 3.0

    def test_merge_order_pins_gauges(self):
        forward = merge_snapshots(
            [_sample_registry(1.0).snapshot(), _sample_registry(2.0).snapshot()]
        )
        backward = merge_snapshots(
            [_sample_registry(2.0).snapshot(), _sample_registry(1.0).snapshot()]
        )
        assert forward["metrics"]["repro_level"]["samples"][0]["value"] == 20.0
        assert backward["metrics"]["repro_level"]["samples"][0]["value"] == 10.0

    def test_merge_is_associative_for_counters_and_histograms(self):
        parts = [_sample_registry(s).snapshot() for s in (1.0, 2.0, 3.0)]
        serial = merge_snapshots(parts)
        nested = merge_snapshots([merge_snapshots(parts[:2]), parts[2]])
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            nested, sort_keys=True
        )

    def test_merge_rejects_version_mismatch(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.merge({"version": 999, "metrics": {}})

    def test_merge_rejects_changed_histogram_bounds(self):
        registry = MetricsRegistry()
        registry.merge(_sample_registry(1.0).snapshot())
        other = _sample_registry(1.0).snapshot()
        other["metrics"]["repro_wait_seconds"]["samples"][0]["bounds"] = [
            0.5,
            5.0,
            50.0,
        ]
        with pytest.raises(ConfigurationError):
            registry.merge(other)

    def test_merge_of_empty_is_empty(self):
        assert merge_snapshots([]) == {
            "version": SNAPSHOT_VERSION,
            "metrics": {},
        }


class TestNullRegistry:
    def test_disabled_and_inert(self):
        assert NULL_REGISTRY.enabled is False
        instrument = NULL_REGISTRY.counter("anything_goes_total")
        instrument.inc()
        instrument.labels(kind="a").observe(1.0)
        instrument.labels(kind="a").observe_many([1.0, 2.0])
        NULL_REGISTRY.gauge("g").set(5)
        assert NULL_REGISTRY.snapshot() == {
            "version": SNAPSHOT_VERSION,
            "metrics": {},
        }

    def test_shared_singleton_instrument(self):
        a = NULL_REGISTRY.counter("a_total")
        b = NULL_REGISTRY.histogram("b_seconds")
        assert a is b is NULL_REGISTRY.gauge("c")

    def test_merge_discards(self):
        NULL_REGISTRY.merge(_sample_registry(1.0).snapshot())
        assert NULL_REGISTRY.snapshot()["metrics"] == {}
