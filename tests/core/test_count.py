"""Tests for DHS counting (Algorithm 1), both scan orders."""

import pytest

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.overlay.chord import ChordRing
from repro.overlay.failures import fail_fraction
from repro.sim.seeds import rng_for

ESTIMATORS = ["sll", "pcsa"]


def make_dhs(n_nodes=64, bits=32, key_bits=16, m=4, seed=3, **kwargs):
    ring = ChordRing.build(n_nodes, bits=bits, seed=seed)
    config = DHSConfig(key_bits=key_bits, num_bitmaps=m, **kwargs)
    return DistributedHashSketch(ring, config, seed=1)


def state_of(sketch):
    return sketch.registers() if hasattr(sketch, "registers") else sketch.bitmaps()


def populate_spread(dhs, metric, items, now=0):
    """Per-item insertion from rotating origins (spreads bit copies)."""
    node_ids = list(dhs.dht.node_ids())
    for i, item in enumerate(items):
        dhs.insert(metric, item, origin=node_ids[i % len(node_ids)], now=now)


class TestExactReconstruction:
    """With an exhaustive probe budget the distributed count must
    reconstruct the centralized sketch bit-for-bit — the core soundness
    property of DHS."""

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_matches_local_sketch(self, estimator):
        dhs = make_dhs(n_nodes=64, m=4, estimator=estimator, lim=70)
        items = list(range(800))
        populate_spread(dhs, "docs", items)
        local = dhs.local_sketch(items)
        result = dhs.count("docs")
        if estimator == "pcsa":
            # PCSA reconstructs bits only up to each leftmost zero; the
            # observables (hence the estimate) must still match exactly.
            assert result.sketches["docs"].observables() == local.observables()
        else:
            assert state_of(result.sketches["docs"]) == state_of(local)
        assert result.estimate() == pytest.approx(local.estimate())

    @pytest.mark.parametrize("estimator", ["sll", "pcsa"])
    def test_matches_local_sketch_many_bitmaps(self, estimator):
        dhs = make_dhs(n_nodes=64, m=16, estimator=estimator, lim=70)
        items = list(range(2000))
        populate_spread(dhs, "docs", items)
        local = dhs.local_sketch(items)
        result = dhs.count("docs")
        assert result.estimate() == pytest.approx(local.estimate())


class TestDuplicateInsensitivity:
    @pytest.mark.parametrize("estimator", ["sll", "pcsa"])
    def test_duplicates_ignored(self, estimator):
        dhs = make_dhs(estimator=estimator, lim=70)
        items = list(range(500)) * 4  # every item four times
        populate_spread(dhs, "docs", items)
        result = dhs.count("docs")
        local = dhs.local_sketch(range(500))
        assert result.estimate() == pytest.approx(local.estimate())


class TestEmptyMetric:
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_unknown_metric_estimates_zero(self, estimator):
        dhs = make_dhs(estimator=estimator)
        result = dhs.count("never-written")
        assert result.estimate() == 0.0


class TestCostProperties:
    def test_hops_independent_of_metric_count(self):
        """Section 4.2: multi-dimension counting costs the hops of one."""
        dhs = make_dhs(m=4, lim=5)
        for metric in ("a", "b", "c", "d"):
            populate_spread(dhs, metric, range(300))
        origin = dhs.dht.node_ids()[0]
        single = dhs.count("a", origin=origin)
        # fresh but identically-seeded counter for a fair comparison
        dhs2 = make_dhs(m=4, lim=5)
        for metric in ("a", "b", "c", "d"):
            populate_spread(dhs2, metric, range(300))
        multi = dhs2.count_many(["a", "b", "c", "d"], origin=origin)
        assert multi.cost.hops <= 2 * single.cost.hops + 10

    def test_bytes_grow_with_metric_count(self):
        dhs = make_dhs(m=4, lim=5)
        for metric in ("a", "b", "c", "d"):
            populate_spread(dhs, metric, range(300))
        origin = dhs.dht.node_ids()[0]
        single = dhs.count("a", origin=origin)
        multi = dhs.count_many(["a", "b", "c", "d"], origin=origin)
        assert multi.cost.bytes > single.cost.bytes

    def test_count_many_estimates_every_metric(self):
        dhs = make_dhs(lim=70)
        populate_spread(dhs, "a", range(400))
        populate_spread(dhs, "b", range(50))
        result = dhs.count_many(["a", "b"])
        assert result.estimates["a"] > result.estimates["b"] > 0

    def test_count_many_validates_input(self):
        dhs = make_dhs()
        with pytest.raises(ValueError):
            dhs.count_many([])
        with pytest.raises(ValueError):
            dhs.count_many(["a", "a"])

    def test_estimate_requires_single_metric(self):
        dhs = make_dhs(lim=20)
        populate_spread(dhs, "a", range(100))
        populate_spread(dhs, "b", range(100))
        result = dhs.count_many(["a", "b"])
        with pytest.raises(ValueError):
            result.estimate()

    def test_probes_bounded_by_lim(self):
        dhs = make_dhs(m=4, lim=3)
        populate_spread(dhs, "docs", range(500))
        result = dhs.count("docs")
        assert result.probes <= 3 * result.intervals_scanned

    def test_lookup_count_matches_intervals(self):
        dhs = make_dhs(m=4, lim=5)
        populate_spread(dhs, "docs", range(500))
        result = dhs.count("docs")
        assert result.cost.lookups == result.intervals_scanned


class TestSoftState:
    def test_expired_entries_invisible(self):
        dhs = make_dhs(ttl=10, lim=70)
        populate_spread(dhs, "docs", range(400), now=0)
        fresh = dhs.count("docs", now=5)
        stale = dhs.count("docs", now=100)
        assert fresh.estimate() > 0
        assert stale.estimate() == 0.0

    def test_refresh_keeps_alive(self):
        dhs = make_dhs(ttl=10, lim=70)
        items = list(range(400))
        populate_spread(dhs, "docs", items, now=0)
        dhs.refresh("docs", items, now=8)
        refreshed = dhs.count("docs", now=15)
        assert refreshed.estimate() > 0

    def test_sweep_reclaims_storage(self):
        dhs = make_dhs(ttl=10)
        populate_spread(dhs, "docs", range(400), now=0)
        before = sum(dhs.storage_per_node().values())
        freed = dhs.sweep_expired(now=100)
        after = sum(dhs.storage_per_node().values())
        assert freed == before
        assert after == 0


class TestFaultTolerance:
    def test_failures_degrade_unreplicated_estimate(self):
        dhs = make_dhs(n_nodes=128, m=4, lim=5, seed=5)
        populate_spread(dhs, "docs", range(2000))
        baseline = dhs.count("docs").estimate()
        fail_fraction(dhs.dht, 0.5, seed=2)
        degraded = dhs.count("docs").estimate()
        assert degraded <= baseline

    def test_replication_recovers_failures(self):
        """With R replicas a 10% failure rate should barely matter."""
        results = {}
        for replication in (0, 4):
            dhs = make_dhs(n_nodes=128, m=4, lim=8, seed=5, replication=replication)
            populate_spread(dhs, "docs", range(1500))
            truth = dhs.local_sketch(range(1500)).estimate()
            fail_fraction(dhs.dht, 0.3, seed=2)
            estimate = dhs.count("docs").estimate()
            results[replication] = abs(estimate - truth) / truth
        assert results[4] <= results[0] + 0.05

    def test_count_works_after_graceful_leaves(self):
        dhs = make_dhs(n_nodes=64, m=4, lim=70)
        items = list(range(800))
        populate_spread(dhs, "docs", items)
        rng = rng_for(4, "leavers")
        for victim in rng.sample(list(dhs.dht.node_ids()), 20):
            dhs.dht.remove_node(victim, graceful=True)
        local = dhs.local_sketch(items)
        result = dhs.count("docs")
        assert result.estimate() == pytest.approx(local.estimate())


class TestBitShiftCounting:
    @pytest.mark.parametrize("estimator", ["sll", "pcsa"])
    def test_shifted_estimate_close_to_plain(self, estimator):
        items = list(range(3000))
        plain = make_dhs(m=4, estimator=estimator, lim=70, bit_shift=0)
        shifted = make_dhs(m=4, estimator=estimator, lim=70, bit_shift=3)
        populate_spread(plain, "docs", items)
        populate_spread(shifted, "docs", items)
        a = plain.count("docs").estimate()
        b = shifted.count("docs").estimate()
        # The shift discards only positions the estimators barely use
        # at this cardinality; estimates stay in the same ballpark.
        assert b == pytest.approx(a, rel=0.35)

    def test_shift_reduces_stored_entries(self):
        items = list(range(3000))
        plain = make_dhs(m=4, bit_shift=0)
        shifted = make_dhs(m=4, bit_shift=3)
        populate_spread(plain, "docs", items)
        populate_spread(shifted, "docs", items)
        # Shifted positions are never written; node-level dedup means the
        # visible reduction is milder than the 8x write reduction.
        assert (
            sum(shifted.storage_per_node().values())
            < 0.75 * sum(plain.storage_per_node().values())
        )
