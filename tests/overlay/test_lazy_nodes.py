"""Lazy node materialization and the memory-lean membership contract."""

import tracemalloc

import pytest

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.errors import NodeNotFoundError
from repro.obs import runtime as obs
from repro.obs.metrics import (
    GAUGE_RING_MEMBERSHIP_BYTES_PER_NODE,
    GAUGE_RING_NODE_HEAP_BYTES,
)
from repro.overlay.chord import ChordRing
from repro.sim.seeds import rng_for
from tests.overlay import chord_oracle as oracle

#: Traced-heap growth allowed over 5,000 lookups on an N=10^4 ring.
#: Routing keeps no per-node state: what grows is the ``LoadTracker``
#: count per visited node (~0.55 MiB) and the route memo, at most
#: ``ROUTE_CACHE_CAP`` ``(origin, owner)`` entries and mostly seen-once
#: marks on random keys (~0.15 MiB).  A finger memo with a reverse
#: index cost 36 MB here.
LOOKUP_HEAP_GROWTH_CEILING = 2 * 1024 * 1024

#: tracemalloc-peak budget per node for a bulk-built ring.  The lean
#: path costs ~150 B/node transiently (the id-dedup set) and 8 B/node
#: resident; reintroducing per-node Python objects (Node + dict entry,
#: ~400+ B each) trips this immediately.
HEAP_BYTES_PER_NODE_CEILING = 320

#: Resident membership bytes per node (one uint64 array slot, plus
#: slack for capacity-doubling growth after churn).
MEMBERSHIP_BYTES_PER_NODE_CEILING = 16


class TestLazyMaterialization:
    def test_build_materializes_no_nodes(self):
        ring = ChordRing.build(512, seed=3)
        assert ring.size == 512
        assert ring._nodes == {}

    def test_node_materializes_on_demand(self):
        ring = ChordRing.build(64, seed=3)
        nid = ring.node_ids()[7]
        assert ring.node_if_materialized(nid) is None
        node = ring.node(nid)
        assert node.node_id == nid and node.alive and node.store == {}
        assert ring.node_if_materialized(nid) is node
        assert ring.node(nid) is node  # same object on re-touch

    def test_node_unknown_id_raises(self):
        ring = ChordRing.build(8, seed=3)
        missing = next(i for i in range(1000) if not ring.has_node(i))
        with pytest.raises(NodeNotFoundError):
            ring.node(missing)

    def test_unmaterialized_members_are_alive(self):
        ring = ChordRing.build(64, seed=3)
        nid = ring.node_ids()[0]
        assert ring.is_alive(nid)
        assert ring.live_node(nid) is not None  # materializes
        assert ring.node_if_materialized(nid) is not None

    def test_mark_failed_materializes_and_kills(self):
        ring = ChordRing.build(64, seed=3)
        nid = ring.node_ids()[5]
        ring.mark_failed(nid)
        assert not ring.is_alive(nid)
        assert ring.live_node(nid) is None
        assert nid in [n for n in ring.node_ids()]  # still routable corpse

    def test_remove_unmaterialized_node_graceful(self):
        ring = ChordRing.build(64, seed=3)
        nid = ring.node_ids()[9]
        ring.remove_node(nid, graceful=True)
        assert not ring.has_node(nid)
        assert ring.size == 63
        # Nothing to merge: the heir stays unmaterialized too.
        assert ring.node_if_materialized(ring.successor_id(nid)) is None

    def test_lookup_materializes_nothing(self):
        ring = ChordRing.build(256, seed=3, trace=True)
        origin = ring.node_ids()[0]
        for key in (1, 2**32, 2**63):
            result = ring.lookup(key, origin=origin)
            assert ring.has_node(result.node_id)
        assert ring._nodes == {}

    def test_store_materializes_only_the_owner(self):
        ring = ChordRing.build(256, seed=3)
        ring.store(123456789, lambda node: node.store.__setitem__("k", 1))
        assert len(ring._nodes) == 1

    def test_responsive_node_ids_skips_dead_materialized(self):
        ring = ChordRing.build(32, seed=3)
        victim = ring.node_ids()[4]
        ring.mark_failed(victim)
        responsive = ring.responsive_node_ids()
        assert victim not in responsive
        assert len(responsive) == 31

    def test_bulk_join_resets_routing_caches(self):
        """Routes after a bulk merge are the oracle's on the merged
        membership: nothing learnt before the merge survives it."""
        ring = ChordRing.build(32, seed=3, trace=True)
        origin = ring.node_ids()[0]
        keys = [1 << 40, 150, 1050, 2050, (1 << 63) + 7]
        for key in keys:
            ring.lookup(key, origin=origin)
        new_ids = [i for i in range(100, 2100, 100) if not ring.has_node(i)]
        ring.add_nodes_bulk(new_ids)
        assert ring.size == 32 + len(new_ids)
        assert ring.owner_of(100) == 100
        ref = ChordRing.from_ids(ring.node_ids(), trace=True)
        for key in keys:
            for start in (origin, 100, 2000):
                got = ring.lookup(key, origin=start)
                expected = oracle.lookup(ref, key, start)
                assert got.node_id == expected.node_id
                assert got.cost.nodes_visited == expected.nodes_visited


class TestMaintenanceOnLazyRing:
    """The maintenance plane touches only the nodes that hold state.

    An N = 10^5 ring with one item stored (owner and two replicas) and
    an empty joiner right after the owner: the gauge finds the
    joiner's missing copy, one round writes it, and a sweep after the
    TTL frees all four copies.  None of them materializes a member it
    does not write, and each returns what it returned when it
    materialized every member.
    """

    def test_sweep_gauge_and_round_materialize_only_what_they_write(self):
        ring = ChordRing.build(100_000, seed=5)
        dhs = DistributedHashSketch(
            ring, DHSConfig(num_bitmaps=16, replication=2, ttl=4), seed=5
        )
        dhs.insert("docs", 42, now=1)
        owner = min(n for n, node in ring._nodes.items() if node.store)
        ring.add_node(owner + 1)
        materialized = set(ring._nodes)
        assert len(materialized) == 4

        assert dhs.replica_divergence(1) == 1
        assert set(ring._nodes) == materialized
        stats = dhs.antientropy(1)
        assert set(ring._nodes) == materialized
        assert ring.node(owner + 1).store  # the round's one write
        assert (
            stats.pairs, stats.pairs_converged, stats.segments_checked,
            stats.segments_mismatched, stats.entries_sent, stats.entries_written,
        ) == (200_002, 200_001, 1, 1, 1, 1)
        assert (stats.cost.hops, stats.cost.messages, stats.cost.bytes) == (
            800_011, 800_011, 12_800_176.0,
        )
        assert dhs.replica_divergence(1) == 0
        assert dhs.sweep_expired(6) == 4
        assert dhs.replica_divergence(6) == 0
        assert set(ring._nodes) == materialized


class TestMemoryRegression:
    def test_bulk_build_heap_ceiling_n1e4(self):
        """A refactor reintroducing per-node dict bloat fails here."""
        n = 10_000
        tracemalloc.start()
        try:
            ring = ChordRing.build(n, seed=13)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        heap_per_node = peak / n
        membership_per_node = ring.membership_nbytes() / ring.size
        obs.METRICS.set_gauge(GAUGE_RING_NODE_HEAP_BYTES, heap_per_node)
        obs.METRICS.set_gauge(
            GAUGE_RING_MEMBERSHIP_BYTES_PER_NODE, membership_per_node
        )
        assert ring._nodes == {}
        assert heap_per_node < HEAP_BYTES_PER_NODE_CEILING
        assert membership_per_node <= MEMBERSHIP_BYTES_PER_NODE_CEILING

    def test_lookups_grow_no_routing_state_n1e4(self):
        """Per-node routing state creeping back in fails here."""
        ring = ChordRing.build(10_000, seed=13)
        rng = rng_for(13, "lookup-heap")
        queries = [
            (rng.randrange(ring.space.size), ring.random_live_node(rng))
            for _ in range(5_000)
        ]
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for key, origin in queries:
                ring.lookup(key, origin=origin)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before <= LOOKUP_HEAP_GROWTH_CEILING
        assert ring._nodes == {}
