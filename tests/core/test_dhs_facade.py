"""Tests for DistributedHashSketch facade introspection utilities."""

import pytest

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.overlay.chord import ChordRing


@pytest.fixture()
def dhs():
    ring = ChordRing.build(64, bits=32, seed=19)
    deployment = DistributedHashSketch(
        ring, DHSConfig(key_bits=16, num_bitmaps=8, lim=40), seed=7
    )
    node_ids = list(ring.node_ids())
    for i in range(2000):
        deployment.insert("docs", i, origin=node_ids[i % len(node_ids)])
    return deployment


class TestStorageIntrospection:
    def test_storage_per_node_covers_all_nodes(self, dhs):
        storage = dhs.storage_per_node()
        assert set(storage) == set(dhs.dht.node_ids())
        assert sum(storage.values()) > 0

    def test_storage_bytes_scale_by_tuple_size(self, dhs):
        entries = dhs.storage_per_node()
        bytes_ = dhs.storage_bytes_per_node()
        tuple_bytes = dhs.config.size_model.tuple_bytes
        for node_id in entries:
            assert bytes_[node_id] == entries[node_id] * tuple_bytes


class TestLocalSketch:
    def test_local_sketch_matches_config(self, dhs):
        sketch = dhs.local_sketch(range(100))
        assert sketch.m == dhs.config.num_bitmaps
        assert sketch.key_bits == dhs.config.key_bits
        assert not sketch.is_empty()

    def test_local_sketch_uses_same_hash_family(self, dhs):
        sketch = dhs.local_sketch([])
        assert sketch.hash_family == dhs.hash_family


class TestStoreMergeHook:
    def test_facade_installs_dhs_merge(self, dhs):
        from repro.core.tuples import merge_store_values

        assert dhs.dht.store_merge is merge_store_values

    def test_graceful_leave_preserves_counts(self, dhs):
        before = dhs.count("docs", origin=dhs.dht.node_ids()[0]).estimate()
        victims = list(dhs.dht.node_ids())[10:18]
        for victim in victims:
            dhs.dht.remove_node(victim, graceful=True)
        after = dhs.count("docs", origin=dhs.dht.node_ids()[0]).estimate()
        assert after == pytest.approx(before, rel=0.3)


class TestInsertManyCost:
    def test_costs_accumulate(self, dhs):
        origin = dhs.dht.node_ids()[0]
        total = dhs.insert_many("other", range(25), origin=origin)
        assert total.lookups == 25
        assert total.hops >= 25  # at least one hop each on a 64-node ring
