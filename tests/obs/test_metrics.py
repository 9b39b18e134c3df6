"""MetricsRegistry/Histogram unit tests: bucketing, merge, reset cascade."""

import pytest

from repro.obs.metrics import METRIC_BUCKETS, Histogram, MetricsRegistry


class TestHistogram:
    def test_bounds_must_be_sorted_unique(self):
        with pytest.raises(ValueError):
            Histogram([])
        with pytest.raises(ValueError):
            Histogram([1, 1, 2])
        with pytest.raises(ValueError):
            Histogram([2, 1])

    def test_inclusive_upper_edges(self):
        hist = Histogram([0, 2, 4])
        for value in (0, 1, 2, 3, 4, 5):
            hist.observe(value)
        # 0 -> <=0; 1,2 -> <=2; 3,4 -> <=4; 5 -> overflow.
        assert hist.counts == [1, 2, 2, 1]
        assert hist.count == 6
        assert hist.total == 15.0
        assert hist.mean() == pytest.approx(2.5)

    def test_mean_empty_is_zero(self):
        assert Histogram([1]).mean() == 0.0

    def test_merge_dict_adds(self):
        a, b = Histogram([0, 1]), Histogram([0, 1])
        a.observe(0)
        b.observe(1)
        b.observe(5)
        a.merge_dict(b.to_dict())
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        assert a.total == 6.0

    def test_merge_dict_rejects_other_bounds(self):
        a = Histogram([0, 1])
        with pytest.raises(ValueError):
            a.merge_dict(Histogram([0, 2]).to_dict())

    def test_reset_keeps_bounds(self):
        hist = Histogram([0, 1])
        hist.observe(1)
        hist.reset()
        assert hist.counts == [0, 0, 0]
        assert hist.count == 0
        assert hist.bounds == (0.0, 1.0)


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.inc("c", 2)
        reg.set_gauge("g", 1.5)
        reg.set_gauge("g", 2.5)
        assert reg.counter("c") == 3
        assert reg.gauge("g") == 2.5
        assert reg.counter("missing") == 0
        assert reg.gauge("missing") == 0.0

    def test_observe_uses_catalogue_bounds(self):
        reg = MetricsRegistry()
        reg.observe("dhs.lookup.hops", 3)
        hist = reg.histogram("dhs.lookup.hops")
        assert hist.bounds == tuple(float(b) for b in METRIC_BUCKETS["dhs.lookup.hops"])
        assert hist.count == 1

    def test_histogram_bounds_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=[0, 1])
        assert reg.histogram("h").bounds == (0.0, 1.0)
        with pytest.raises(ValueError):
            reg.histogram("h", bounds=[0, 2])

    def test_snapshot_is_sorted_plain_data(self):
        reg = MetricsRegistry()
        reg.inc("z")
        reg.inc("a")
        reg.observe("h", 1)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["histograms"]["h"]["count"] == 1
        # Plain data only: round-trips through JSON.
        import json

        assert json.loads(json.dumps(snap)) == snap

    def test_merge_snapshot_counters_add_gauges_overwrite(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 1)
        a.set_gauge("g", 1.0)
        b.inc("c", 2)
        b.inc("only_b")
        b.set_gauge("g", 9.0)
        b.observe("h", 3)
        a.merge_snapshot(b.snapshot())
        assert a.counter("c") == 3
        assert a.counter("only_b") == 1
        assert a.gauge("g") == 9.0
        assert a.histogram("h").count == 1

    def test_merge_sequence_equals_serial_recording(self):
        # Recording x then y into one registry == merging two per-trial
        # snapshots in the same order — floats included.
        values = [0.1, 0.2, 0.7, 1e-3]
        serial = MetricsRegistry()
        merged = MetricsRegistry()
        for value in values:
            serial.inc("c", value)
            trial = MetricsRegistry()
            trial.inc("c", value)
            merged.merge_snapshot(trial.snapshot())
        assert merged.snapshot() == serial.snapshot()

    def test_reset_zeroes_every_value(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.set_gauge("g", 1.0)
        reg.observe("h", 1)
        assert not reg.is_empty()
        reg.reset()
        assert reg.is_empty()
        assert reg.counter("c") == 0
        # Histogram survives with zeroed buckets.
        assert reg.histogram("h").count == 0
