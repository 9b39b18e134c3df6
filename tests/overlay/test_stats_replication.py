"""Tests for cost accounting, replication, and failure injection."""

import pytest

from repro.core.tuples import PackedSlot
from repro.errors import ConfigurationError
from repro.overlay.chord import ChordRing
from repro.overlay.failures import fail_fraction, fail_nodes
from repro.overlay.messages import SizeModel
from repro.overlay.replication import (
    entry_expiry,
    replica_chain,
    replicate_to_successors,
)
from repro.overlay.stats import LoadTracker, OpCost


class TestOpCost:
    def test_add_accumulates(self):
        a = OpCost(hops=2, bytes=16.0, messages=2, nodes_visited=[1, 2], lookups=1)
        b = OpCost(hops=3, bytes=24.0, messages=3, nodes_visited=[2, 3], lookups=1)
        a.add(b)
        assert a.hops == 5
        assert a.bytes == 40.0
        assert a.messages == 5
        assert a.lookups == 2
        assert a.nodes_visited == [1, 2, 2, 3]

    def test_unique_nodes(self):
        cost = OpCost(nodes_visited=[1, 2, 2, 3, 3, 3])
        assert cost.unique_nodes == 3

    def test_total(self):
        costs = [OpCost(hops=1), OpCost(hops=2), OpCost(hops=3)]
        assert OpCost.total(costs).hops == 6

    def test_iadd(self):
        cost = OpCost()
        cost += OpCost(hops=4)
        assert cost.hops == 4


class TestLoadTracker:
    def test_record_and_count(self):
        tracker = LoadTracker()
        tracker.record(1)
        tracker.record(1, amount=4)
        assert tracker.count(1) == 5
        assert tracker.count(99) == 0

    def test_imbalance_perfectly_even(self):
        tracker = LoadTracker()
        for node in range(10):
            tracker.record(node, amount=7)
        assert tracker.imbalance(range(10)) == pytest.approx(1.0)

    def test_imbalance_hotspot(self):
        tracker = LoadTracker()
        tracker.record(0, amount=1000)
        assert tracker.imbalance(range(10)) == pytest.approx(10.0)

    def test_imbalance_empty(self):
        assert LoadTracker().imbalance(range(5)) == 0.0
        assert LoadTracker().imbalance([]) == 0.0

    def test_reset(self):
        tracker = LoadTracker()
        tracker.record(1)
        tracker.reset()
        assert tracker.total == 0


class TestSizeModel:
    def test_probe_bytes(self):
        model = SizeModel(tuple_bytes=8, probe_request_bytes=8, key_bytes=8)
        assert model.probe_bytes(request_hops=5, tuples_returned=3) == 5 * 8 + 24

    def test_probe_bytes_scales_with_metrics(self):
        model = SizeModel()
        single = model.probe_bytes(request_hops=5, tuples_returned=0, metrics=1)
        many = model.probe_bytes(request_hops=5, tuples_returned=0, metrics=100)
        assert many > single


class TestReplication:
    def test_chain_members_are_successors(self):
        ring = ChordRing.from_ids([10, 50, 100, 200], bits=8)
        assert replica_chain(ring, 10, 2) == [50, 100]

    def test_chain_wraps(self):
        ring = ChordRing.from_ids([10, 50, 200], bits=8)
        assert replica_chain(ring, 200, 2) == [10, 50]

    def test_chain_skips_lazily_failed_successor(self):
        # Docstring contract: replicas land on *live* nodes only.  A
        # lazily-failed first successor still holds its ring position,
        # so the walk must step over it to the next live node.
        ring = ChordRing.from_ids([10, 50, 100, 200], bits=8)
        ring.mark_failed(50)
        assert replica_chain(ring, 10, 2) == [100, 200]

    def test_chain_terminates_when_origin_evicted(self):
        ring = ChordRing.from_ids([10, 50, 100], bits=8)
        ring.fail_node(10)
        # The walk can never revisit the evicted origin; it must stop
        # after one lap instead of looping.
        assert replica_chain(ring, 10, 5) == [50, 100]

    def test_replicate_skips_dead_first_successor(self):
        ring = ChordRing.from_ids([10, 50, 100, 200], bits=8)
        ring.mark_failed(50)
        cost = replicate_to_successors(
            ring, 10, lambda n: n.store.update({"bit": 1}), degree=2
        )
        assert ring.node(100).store["bit"] == 1
        assert ring.node(200).store["bit"] == 1
        assert "bit" not in ring.node(50).store
        assert cost is not None and cost.hops == 2

    def test_chain_stops_at_full_circle(self):
        ring = ChordRing.from_ids([10, 50], bits=8)
        assert replica_chain(ring, 10, 5) == [50]

    def test_replicate_writes_all_replicas(self):
        ring = ChordRing.from_ids([10, 50, 100, 200], bits=8)
        cost = replicate_to_successors(ring, 10, lambda n: n.store.update({"bit": 1}), degree=2)
        assert ring.node(50).store["bit"] == 1
        assert ring.node(100).store["bit"] == 1
        assert "bit" not in ring.node(200).store
        assert cost.hops == 2
        assert cost.bytes == 16

    def test_zero_degree_is_noop(self):
        ring = ChordRing.from_ids([10, 50], bits=8)
        assert replicate_to_successors(ring, 10, lambda n: None, degree=0) is None

    def test_entry_expiry_of_a_copy(self):
        """Immortal stays immortal, a TTL travels, an absent vector raises.

        The one definition every repair path copies through: answering
        ``None`` for a vector the slot does not hold would write it as
        immortal at the destination — a bit nobody inserted.
        """
        slot = PackedSlot(mask=0b01, expiring={3: 17.0})
        assert entry_expiry(slot, 0) is None
        assert entry_expiry(slot, 3) == 17
        with pytest.raises(KeyError):
            entry_expiry(slot, 2)
        with pytest.raises(KeyError):
            entry_expiry(PackedSlot(), 0)


class TestFailures:
    def test_fail_fraction_count(self):
        ring = ChordRing.build(100, bits=32, seed=3)
        victims = fail_fraction(ring, 0.3, seed=1)
        assert len(victims) == 30
        assert ring.size == 70

    def test_fail_fraction_leaves_survivor(self):
        ring = ChordRing.build(10, bits=32, seed=3)
        fail_fraction(ring, 0.99, seed=1)
        assert ring.size >= 1

    def test_fail_fraction_validates(self):
        ring = ChordRing.build(10, bits=32, seed=3)
        with pytest.raises(ConfigurationError):
            fail_fraction(ring, 1.0)

    def test_fail_nodes_explicit(self):
        ring = ChordRing.from_ids([10, 50, 200], bits=8)
        fail_nodes(ring, [50])
        assert not ring.has_node(50)
        assert ring.size == 2

    def test_deterministic_victims(self):
        a = ChordRing.build(50, bits=32, seed=3)
        b = ChordRing.build(50, bits=32, seed=3)
        assert fail_fraction(a, 0.2, seed=9) == fail_fraction(b, 0.2, seed=9)
