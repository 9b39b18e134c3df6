"""Tests for the Pastry overlay."""

import statistics

import pytest

from repro.errors import ConfigurationError
from repro.overlay.pastry import PastryOverlay
from repro.sim.seeds import rng_for


@pytest.fixture(scope="module")
def overlay():
    return PastryOverlay.build(256, bits=32, digit_bits=4, seed=31)


def brute_force_owner(space_size, ids, key):
    def circ(a, b):
        d = (b - a) % space_size
        return min(d, space_size - d)

    best = min(circ(n, key) for n in ids)
    return min(n for n in ids if circ(n, key) == best)


class TestConstruction:
    def test_build(self, overlay):
        assert overlay.size == 256

    def test_digit_bits_validation(self):
        with pytest.raises(ConfigurationError):
            PastryOverlay.build(4, bits=32, digit_bits=0)
        with pytest.raises(ConfigurationError):
            PastryOverlay.build(4, bits=32, digit_bits=5)  # 5 does not divide 32

    def test_from_ids(self):
        overlay = PastryOverlay.from_ids([1, 100, 200], bits=8, digit_bits=4)
        assert list(overlay.node_ids()) == [1, 100, 200]
        with pytest.raises(ConfigurationError):
            PastryOverlay.from_ids([], bits=8)


class TestOwnership:
    def test_owner_is_numerically_closest(self, overlay):
        ids = list(overlay.node_ids())
        rng = rng_for(1, "pastry-owner")
        for _ in range(300):
            key = rng.randrange(2**32)
            assert overlay.owner_of(key) == brute_force_owner(2**32, ids, key)

    def test_wraparound_ownership(self):
        overlay = PastryOverlay.from_ids([10, 240], bits=8, digit_bits=4)
        assert overlay.owner_of(250) == 240
        assert overlay.owner_of(255) == 10  # closer across the wrap
        assert overlay.owner_of(0) == 10

    def test_equidistant_key_prefers_lower_id(self):
        overlay = PastryOverlay.from_ids([10, 240], bits=8, digit_bits=4)
        # 253 is exactly 13 away from both nodes (240 + 13, 10 - 13 mod 256).
        assert overlay.owner_of(253) == 10

    def test_tie_breaks_to_lower_id(self):
        overlay = PastryOverlay.from_ids([10, 20], bits=8, digit_bits=4)
        assert overlay.owner_of(15) == 10


class TestSharedDigits:
    def test_counts_leading_digits(self):
        overlay = PastryOverlay.from_ids([0], bits=16, digit_bits=4)
        assert overlay.shared_digits(0x1234, 0x1234) == 4
        assert overlay.shared_digits(0x1234, 0x1235) == 3
        assert overlay.shared_digits(0x1234, 0x1334) == 1
        assert overlay.shared_digits(0x1234, 0xF234) == 0


class TestRouting:
    def test_lookup_reaches_owner(self, overlay):
        rng = rng_for(2, "pastry-route")
        for _ in range(400):
            key = rng.randrange(2**32)
            origin = overlay.random_live_node(rng)
            assert overlay.lookup(key, origin=origin).node_id == overlay.owner_of(key)

    def test_hops_logarithmic(self):
        overlay = PastryOverlay.build(1024, bits=64, digit_bits=4, seed=7)
        rng = rng_for(3, "pastry-hops")
        hops = [
            overlay.lookup(rng.randrange(2**64), origin=overlay.random_live_node(rng)).cost.hops
            for _ in range(300)
        ]
        # log_16(1024) = 2.5; allow leaf-set tail steps.
        assert statistics.mean(hops) < 8
        assert max(hops) <= 30

    def test_fewer_hops_than_chord(self):
        """Base-16 digits fix 4 bits per hop vs Chord's ~1 halving."""
        from repro.overlay.chord import ChordRing

        pastry = PastryOverlay.build(512, bits=64, digit_bits=4, seed=9)
        chord = ChordRing.build(512, bits=64, seed=9)
        rng = rng_for(4, "compare")

        def mean_hops(overlay):
            local = rng_for(5, "keys")
            return statistics.mean(
                overlay.lookup(
                    local.randrange(2**64), origin=overlay.random_live_node(local)
                ).cost.hops
                for _ in range(300)
            )

        assert mean_hops(pastry) < mean_hops(chord)

    def test_routing_after_churn(self):
        overlay = PastryOverlay.build(128, bits=32, digit_bits=4, seed=11)
        rng = rng_for(6, "pastry-churn")
        for victim in rng.sample(list(overlay.node_ids()), 40):
            overlay.fail_node(victim)
        for _ in range(200):
            key = rng.randrange(2**32)
            origin = overlay.random_live_node(rng)
            assert overlay.lookup(key, origin=origin).node_id == overlay.owner_of(key)

    def test_lookup_from_owner_is_free(self, overlay):
        key = 999_999
        owner = overlay.owner_of(key)
        assert overlay.lookup(key, origin=owner).cost.hops == 0

    def test_path_recorded_only_when_traced(self, overlay, monkeypatch):
        rng = rng_for(7, "pastry-path")
        key = rng.randrange(2**32)
        origin = overlay.random_live_node(rng)
        # The per-hop path is recorded under ``trace`` only (OpCost).
        assert overlay.lookup(key, origin=origin).cost.nodes_visited == []
        monkeypatch.setattr(overlay, "trace", True)
        result = overlay.lookup(key, origin=origin)
        path = result.cost.nodes_visited
        assert result.cost.hops > 0
        assert len(path) == result.cost.hops + 1
        assert path[0] == origin and path[-1] == result.node_id


class TestDHSIntegration:
    def test_dhs_counts_over_pastry(self):
        from repro.core.config import DHSConfig
        from repro.core.dhs import DistributedHashSketch

        overlay = PastryOverlay.build(64, bits=32, digit_bits=4, seed=13)
        dhs = DistributedHashSketch(
            overlay, DHSConfig(key_bits=16, num_bitmaps=8, lim=70), seed=3
        )
        node_ids = list(overlay.node_ids())
        for i in range(3000):
            dhs.insert("docs", i, origin=node_ids[i % len(node_ids)])
        estimate = dhs.count("docs").estimate()
        assert estimate == pytest.approx(3000, rel=0.6)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=30, deadline=None)
@given(
    ids=st.sets(st.integers(min_value=0, max_value=2**16 - 1), min_size=1, max_size=25),
    key=st.integers(min_value=0, max_value=2**16 - 1),
)
def test_property_owner_is_circular_closest(ids, key):
    overlay = PastryOverlay.from_ids(sorted(ids), bits=16, digit_bits=4)
    assert overlay.owner_of(key) == brute_force_owner(2**16, ids, key)


@settings(max_examples=20, deadline=None)
@given(
    ids=st.sets(st.integers(min_value=0, max_value=2**16 - 1), min_size=2, max_size=25),
    key=st.integers(min_value=0, max_value=2**16 - 1),
)
def test_property_routing_reaches_owner(ids, key):
    overlay = PastryOverlay.from_ids(sorted(ids), bits=16, digit_bits=4)
    for origin in sorted(ids)[:4]:
        assert overlay.lookup(key, origin=origin).node_id == overlay.owner_of(key)
