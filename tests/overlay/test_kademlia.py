"""Tests for the Kademlia overlay."""

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.overlay.kademlia import KademliaOverlay
from repro.sim.seeds import rng_for


@pytest.fixture(scope="module")
def overlay():
    return KademliaOverlay.build(256, bits=32, seed=21)


def brute_force_owner(ids, key):
    return min(ids, key=lambda n: n ^ key)


class TestOwnership:
    def test_owner_matches_brute_force_small(self):
        ids = [0b0001, 0b0110, 0b1010, 0b1111]
        overlay = KademliaOverlay.from_ids(ids, bits=4)
        for key in range(16):
            assert overlay.owner_of(key) == brute_force_owner(ids, key)

    def test_owner_matches_brute_force_random(self, overlay):
        ids = list(overlay.node_ids())
        rng = rng_for(2, "kad-owner")
        for _ in range(300):
            key = rng.randrange(2**32)
            assert overlay.owner_of(key) == brute_force_owner(ids, key)

    def test_own_id_is_self_owned(self, overlay):
        for node_id in list(overlay.node_ids())[:20]:
            assert overlay.owner_of(node_id) == node_id

    def test_owner_is_neither_numeric_neighbour(self):
        """Key 0b0100 sits between 0b0011 and 0b1000, but shares its top
        bit with 0b0000 and 0b0011 only, and of those 0b0000 is closer."""
        ids = [0b0000, 0b0011, 0b1000]
        overlay = KademliaOverlay.from_ids(ids, bits=4)
        assert overlay.owner_of(0b0100) == 0b0000 == brute_force_owner(ids, 0b0100)

    def test_owner_after_several_flips(self):
        """Keys 0 and 0b11 first differ from 0b1_1100 and 0b1_1111 at
        bit 4, and neither member is alone below bit 4, 3 or 2: the
        descent flips the key three times before it lands on the owner."""
        ids = [0b0001_1100, 0b0001_1111, 0b1000_0000]
        overlay = KademliaOverlay.from_ids(ids, bits=8)
        assert overlay.owner_of(0b0000) == 0b0001_1100
        assert overlay.owner_of(0b0011) == 0b0001_1111
        for key in range(2**8):
            assert overlay.owner_of(key) == brute_force_owner(ids, key)

    def test_single_node_owns_everything(self):
        overlay = KademliaOverlay.from_ids([0b1010], bits=4)
        assert {overlay.owner_of(key) for key in range(16)} == {0b1010}

    @pytest.mark.parametrize("bits", [8, 16, 64, 80])
    def test_member_keys_and_extreme_keys(self, bits):
        """A member owns its own id, and keys 0 and ``2^L - 1`` (present
        or not) go to the XOR minimum; 80 bits is the list-backed ring."""
        rng = rng_for(bits, "kad-edges")
        top = 2**bits - 1
        for corners in ((), (0,), (top,), (0, top)):
            ids = sorted({rng.randrange(2**bits) for _ in range(25)} | set(corners))
            overlay = KademliaOverlay.from_ids(ids, bits=bits)
            for member in ids:
                assert overlay.owner_of(member) == member
            for key in (0, top, top + 1, -1):
                assert overlay.owner_of(key) == brute_force_owner(ids, key & top)

    def test_wide_ring_matches_brute_force(self):
        rng = rng_for(6, "kad-wide")
        ids = sorted({rng.randrange(2**80) for _ in range(200)})
        overlay = KademliaOverlay.from_ids(ids, bits=80)
        assert isinstance(overlay.node_ids().buffer, list)
        for _ in range(300):
            key = rng.randrange(2**80)
            assert overlay.owner_of(key) == brute_force_owner(ids, key)

    @settings(max_examples=40, deadline=None)
    @given(
        ids=st.sets(st.integers(min_value=0, max_value=2**12 - 1), min_size=1, max_size=30),
        key=st.integers(min_value=0, max_value=2**12 - 1),
    )
    def test_property_owner_is_xor_min(self, ids, key):
        overlay = KademliaOverlay.from_ids(sorted(ids), bits=12)
        assert overlay.owner_of(key) == brute_force_owner(ids, key)


class TestBuckets:
    def test_contact_is_in_bucket(self, overlay):
        node_id = list(overlay.node_ids())[0]
        for i in range(32):
            contact = overlay.bucket_contact(node_id, i)
            if contact is not None:
                assert (node_id ^ contact).bit_length() - 1 == i

    def test_contact_cached(self, overlay):
        node_id = list(overlay.node_ids())[3]
        assert overlay.bucket_contact(node_id, 30) == overlay.bucket_contact(node_id, 30)

    def test_cache_invalidated_on_churn(self):
        overlay = KademliaOverlay.build(64, bits=32, seed=5)
        node_id = list(overlay.node_ids())[0]
        overlay.bucket_contact(node_id, 31)
        overlay.add_node(123456)
        assert not overlay._contact_cache


class TestRouting:
    def test_lookup_reaches_owner(self, overlay):
        rng = rng_for(7, "kad-route")
        for _ in range(400):
            key = rng.randrange(2**32)
            origin = overlay.random_live_node(rng)
            assert overlay.lookup(key, origin=origin).node_id == overlay.owner_of(key)

    def test_hops_logarithmic(self):
        overlay = KademliaOverlay.build(1024, bits=64, seed=9)
        rng = rng_for(8, "kad-hops")
        hops = [
            overlay.lookup(rng.randrange(2**64), origin=overlay.random_live_node(rng)).cost.hops
            for _ in range(400)
        ]
        assert statistics.mean(hops) < 10  # log2(1024) = 10
        assert max(hops) <= 20

    def test_xor_distance_monotone_along_path(self, overlay, monkeypatch):
        rng = rng_for(3, "kad-mono")
        key = rng.randrange(2**32)
        origin = overlay.random_live_node(rng)
        # The per-hop path is recorded under ``trace`` only (OpCost).
        assert overlay.lookup(key, origin=origin).cost.nodes_visited == []
        monkeypatch.setattr(overlay, "trace", True)
        result = overlay.lookup(key, origin=origin)
        path = result.cost.nodes_visited
        assert result.cost.hops > 0
        assert len(path) == result.cost.hops + 1
        distances = [node ^ key for node in path]
        assert all(a > b for a, b in zip(distances, distances[1:]))

    def test_routing_after_failures(self):
        overlay = KademliaOverlay.build(128, bits=32, seed=14)
        rng = rng_for(4, "kad-fail")
        for victim in rng.sample(list(overlay.node_ids()), 40):
            overlay.fail_node(victim)
        for _ in range(150):
            key = rng.randrange(2**32)
            origin = overlay.random_live_node(rng)
            assert overlay.lookup(key, origin=origin).node_id == overlay.owner_of(key)


class TestConstruction:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            KademliaOverlay.build(0)
        with pytest.raises(ConfigurationError):
            KademliaOverlay.from_ids([], bits=8)

    def test_deterministic(self):
        a = KademliaOverlay.build(32, bits=32, seed=6)
        b = KademliaOverlay.build(32, bits=32, seed=6)
        assert list(a.node_ids()) == list(b.node_ids())
