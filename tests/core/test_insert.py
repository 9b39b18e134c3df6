"""Tests for DHS insertion: placement, dedup, bulk grouping, replication."""

import pytest

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.core.tuples import bits_of, storage_entries, vectors_mask
from repro.overlay.chord import ChordRing


def make_dhs(n_nodes=64, bits=32, key_bits=16, m=4, **kwargs):
    ring = ChordRing.build(n_nodes, bits=bits, seed=3)
    config = DHSConfig(key_bits=key_bits, num_bitmaps=m, **kwargs)
    return DistributedHashSketch(ring, config, seed=1)


def find_entry_nodes(dhs, metric, vector, bit):
    """All nodes holding a live entry for (metric, vector, bit)."""
    return [
        node_id
        for node_id in dhs.dht.node_ids()
        if vector in bits_of(vectors_mask(dhs.dht.node(node_id), metric, bit))
    ]


class TestPlacement:
    def test_entry_lands_in_mapped_interval(self):
        dhs = make_dhs()
        for item in range(50):
            dhs.insert("docs", item)
        for node_id in dhs.dht.node_ids():
            node = dhs.dht.node(node_id)
            for (metric, bit), slot in node.store.items():
                assert metric == "docs"
                lo, hi = dhs.mapping.interval_for_position(bit)
                # The storing node owns a key in [lo, hi): its id is in
                # the interval or it is the first node after it.
                pred = dhs.dht.predecessor_id(node_id)
                owns_from = (pred + 1) % dhs.dht.space.size
                assert owns_from < hi or node_id >= lo or pred > node_id

    def test_observation_consistent_with_sketch(self):
        dhs = make_dhs()
        sketch = dhs.config.make_sketch(dhs.hash_family)
        for item in range(100):
            assert dhs._inserter.observation(item) == (
                sketch.observation(item)[0],
                min(sketch.observation(item)[1], sketch.position_bits - 1),
            )

    def test_insert_cost_is_logarithmic(self):
        dhs = make_dhs(n_nodes=256)
        total_hops = sum(dhs.insert("docs", item).hops for item in range(200))
        assert 1.0 < total_hops / 200 < 16  # ~0.5*log2(256)+1 expected

    def test_insert_bytes_match_hops(self):
        dhs = make_dhs()
        cost = dhs.insert("docs", 123)
        assert cost.bytes == cost.hops * dhs.config.size_model.tuple_bytes


class TestDedup:
    def test_same_item_from_same_origin_no_growth(self):
        dhs = make_dhs()
        origin = dhs.dht.node_ids()[0]
        dhs.insert("docs", 42, origin=origin)
        before = sum(dhs.storage_per_node().values())
        # Re-inserting the same item can only refresh or add one more
        # random-key copy of the SAME logical bit — never new logical state.
        dhs.insert("docs", 42, origin=origin)
        after = sum(dhs.storage_per_node().values())
        assert after <= before + 1

    def test_node_level_dedup(self):
        dhs = make_dhs(n_nodes=1)  # everything lands on one node
        for _ in range(20):
            dhs.insert("docs", 7)
        node = dhs.dht.node(dhs.dht.node_ids()[0])
        assert storage_entries(node) == 1


class TestBulk:
    def test_bulk_equals_individual_state(self):
        a = make_dhs()
        b = make_dhs()
        items = list(range(300))
        for item in items:
            a.insert("docs", item)
        b.insert_bulk("docs", items)
        # Same logical bits present somewhere in each deployment.
        for vector in range(4):
            for bit in range(10):
                assert bool(find_entry_nodes(a, "docs", vector, bit)) == bool(
                    find_entry_nodes(b, "docs", vector, bit)
                )

    def test_bulk_uses_fewer_lookups(self):
        a = make_dhs()
        b = make_dhs()
        items = list(range(300))
        origin = a.dht.node_ids()[0]
        cost_individual = a.insert_many("docs", items, origin=origin)
        cost_bulk = b.insert_bulk("docs", items, origin=origin)
        assert cost_bulk.lookups <= a.mapping.num_intervals
        assert cost_individual.lookups == len(items)
        assert cost_bulk.hops < cost_individual.hops

    def test_bulk_sends_distinct_tuples_only(self):
        dhs = make_dhs()
        origin = dhs.dht.node_ids()[0]
        once = dhs.insert_bulk("a", list(range(100)), origin=origin)
        duplicated = dhs.insert_bulk("b", list(range(100)) * 5, origin=origin)
        assert duplicated.bytes == pytest.approx(once.bytes, rel=0.7)

    def test_bulk_empty_iterable(self):
        dhs = make_dhs()
        cost = dhs.insert_bulk("docs", [])
        assert cost.hops == 0
        assert cost.bytes == 0


class TestReplication:
    def test_replicas_written_to_successors(self):
        dhs = make_dhs(replication=3)
        dhs.insert("docs", 99)
        vector, position = dhs._inserter.observation(99)
        holders = find_entry_nodes(dhs, "docs", vector, position)
        assert len(holders) == 4  # primary + 3 replicas

    def test_replication_cost_constant_extra_hops(self):
        plain = make_dhs(replication=0)
        replicated = make_dhs(replication=3)
        origin = plain.dht.node_ids()[0]
        cost_plain = plain.insert("docs", 5, origin=origin)
        cost_repl = replicated.insert("docs", 5, origin=origin)
        assert cost_repl.hops == cost_plain.hops + 3


class TestBitShift:
    def test_low_positions_not_stored(self):
        dhs = make_dhs(bit_shift=4)
        stored_low = 0
        for item in range(500):
            vector, position = dhs._inserter.observation(item)
            dhs.insert("docs", item)
            if position < 4:
                stored_low += 1
        # ~94% of items have position < 4 and must not be stored.
        assert stored_low > 400
        for node_id in dhs.dht.node_ids():
            for (metric, bit) in dhs.dht.node(node_id).store:
                assert bit >= 4

    def test_shifted_insert_costs_nothing_for_low_bits(self):
        dhs = make_dhs(bit_shift=8)
        # find an item with a low position
        for item in range(100):
            _, position = dhs._inserter.observation(item)
            if position < 8:
                assert dhs.insert("docs", item).hops == 0
                break
        else:
            pytest.fail("no low-position item found in 100 tries")


class TestTTLInsertion:
    def test_expiry_recorded(self):
        dhs = make_dhs(n_nodes=1, ttl=10)
        dhs.insert("docs", 1, now=5)
        node = dhs.dht.node(dhs.dht.node_ids()[0])
        vector, position = dhs._inserter.observation(1)
        assert bits_of(vectors_mask(node, "docs", position, now=15)) == [vector]
        assert bits_of(vectors_mask(node, "docs", position, now=16)) == []
