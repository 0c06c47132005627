"""Tests for the in-process metrics registry."""

import math

import pytest

from repro.obs import MetricsRegistry, diff_snapshots, get_registry


class TestInstruments:
    def test_counter_accumulates(self, registry):
        registry.counter("battery.units.completed").inc()
        registry.counter("battery.units.completed").inc(3)
        assert registry.counter("battery.units.completed").value == 4

    def test_counter_rejects_negative(self, registry):
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)

    def test_gauge_takes_last_value(self, registry):
        registry.gauge("battery.jobs").set(4)
        registry.gauge("battery.jobs").set(2)
        assert registry.gauge("battery.jobs").value == 2

    def test_histogram_summary(self, registry):
        hist = registry.histogram("battery.unit.seconds")
        for value in (1.0, 3.0, 2.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 6.0
        assert hist.min == 1.0
        assert hist.max == 3.0
        assert hist.mean == 2.0

    def test_histogram_mean_is_nan_before_observations(self, registry):
        assert math.isnan(registry.histogram("empty").mean)

    def test_histogram_timer_observes_block_duration(self, registry):
        hist = registry.histogram("timed")
        with hist.time():
            pass
        assert hist.count == 1
        assert hist.total >= 0

    def test_same_name_returns_same_instrument(self, registry):
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("b") is registry.histogram("b")


class TestSnapshotMerge:
    def test_snapshot_is_plain_nested_dicts(self, registry):
        registry.counter("cache.hit").inc(2)
        registry.gauge("battery.jobs").set(4)
        registry.histogram("unit.s").observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"] == {"cache.hit": 2}
        assert snap["gauges"] == {"battery.jobs": 4}
        assert snap["histograms"]["unit.s"] == {
            "count": 1, "sum": 0.5, "min": 0.5, "max": 0.5,
        }

    def test_merge_adds_counters_and_combines_histograms(self, registry):
        registry.counter("cache.hit").inc(1)
        registry.histogram("unit.s").observe(2.0)
        worker = MetricsRegistry()
        worker.counter("cache.hit").inc(5)
        worker.counter("generator.steps").inc(100)
        worker.histogram("unit.s").observe(1.0)
        worker.histogram("unit.s").observe(4.0)
        registry.merge(worker.snapshot())
        assert registry.counter("cache.hit").value == 6
        assert registry.counter("generator.steps").value == 100
        hist = registry.histogram("unit.s")
        assert hist.count == 3
        assert hist.total == 7.0
        assert hist.min == 1.0
        assert hist.max == 4.0

    def test_merge_gauges_take_incoming_value(self, registry):
        registry.gauge("depth").set(1)
        worker = MetricsRegistry()
        worker.gauge("depth").set(9)
        registry.merge(worker.snapshot())
        assert registry.gauge("depth").value == 9

    def test_merge_skips_empty_histograms(self, registry):
        worker = MetricsRegistry()
        worker.histogram("never.observed")  # created but untouched
        registry.merge(worker.snapshot())
        assert registry.histogram("never.observed").count == 0
        assert registry.histogram("never.observed").min is None

    def test_merge_disjoint_keys_keeps_both_sides(self, registry):
        registry.counter("parent.only").inc(2)
        registry.histogram("parent.hist").observe(1.0)
        worker = MetricsRegistry()
        worker.counter("worker.only").inc(5)
        worker.histogram("worker.hist").observe(3.0)
        registry.merge(worker.snapshot())
        snap = registry.snapshot()
        assert snap["counters"] == {"parent.only": 2, "worker.only": 5}
        assert set(snap["histograms"]) == {"parent.hist", "worker.hist"}
        assert snap["histograms"]["worker.hist"]["count"] == 1

    def test_merge_zero_count_histogram_leaves_minmax_alone(self, registry):
        registry.histogram("unit.s").observe(2.0)
        worker = MetricsRegistry()
        worker.histogram("unit.s")  # zero observations
        registry.merge(worker.snapshot())
        hist = registry.histogram("unit.s")
        assert (hist.count, hist.min, hist.max) == (1, 2.0, 2.0)

    def test_clear_drops_everything(self, registry):
        registry.counter("a").inc()
        registry.clear()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


class TestDiffSnapshots:
    def test_counters_subtract(self, registry):
        registry.counter("cache.hit").inc(3)
        before = registry.snapshot()
        registry.counter("cache.hit").inc(2)
        registry.counter("cache.miss").inc(1)
        delta = diff_snapshots(registry.snapshot(), before)
        assert delta["counters"] == {"cache.hit": 2, "cache.miss": 1}

    def test_histograms_subtract_count_and_sum(self, registry):
        hist = registry.histogram("unit.s")
        hist.observe(1.0)
        before = registry.snapshot()
        hist.observe(3.0)
        delta = diff_snapshots(registry.snapshot(), before)
        assert delta["histograms"]["unit.s"]["count"] == 1
        assert delta["histograms"]["unit.s"]["sum"] == 3.0

    def test_diff_disjoint_keys_treat_missing_as_zero(self, registry):
        registry.counter("old.counter").inc(3)
        before = registry.snapshot()
        registry.counter("new.counter").inc(4)
        delta = diff_snapshots(registry.snapshot(), before)
        # The untouched counter reports zero delta; the new one its count.
        assert delta["counters"] == {"old.counter": 0, "new.counter": 4}

    def test_diff_zero_count_histogram_is_zero_delta(self, registry):
        hist = registry.histogram("unit.s")
        before = registry.snapshot()
        delta = diff_snapshots(registry.snapshot(), before)
        assert delta["histograms"]["unit.s"]["count"] == 0
        assert delta["histograms"]["unit.s"]["sum"] == 0.0
        assert hist.count == 0

    def test_diff_idle_histogram_reports_zero_min_max(self, registry):
        hist = registry.histogram("unit.s")
        hist.observe(2.5)
        before = registry.snapshot()
        delta = diff_snapshots(registry.snapshot(), before)
        # Nothing was observed in between: no stale "after" extremes.
        assert delta["histograms"]["unit.s"] == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
        }
        hist.observe(1.0)
        delta = diff_snapshots(registry.snapshot(), before)
        assert delta["histograms"]["unit.s"]["count"] == 1
        assert delta["histograms"]["unit.s"]["max"] == 2.5  # after-extreme

    def test_gauges_report_after_value(self, registry):
        registry.gauge("jobs").set(1)
        before = registry.snapshot()
        registry.gauge("jobs").set(4)
        delta = diff_snapshots(registry.snapshot(), before)
        assert delta["gauges"] == {"jobs": 4}


class TestAmbient:
    def test_conftest_installs_fresh_ambient_registry(self):
        assert get_registry().snapshot()["counters"] == {}
