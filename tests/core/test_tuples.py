"""Tests for DHS node-store entries and soft-state semantics."""

from repro.baselines.single_node import SingleNodeCounter
from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.core.regstore import RegArena
from repro.core.tuples import (
    PackedSlot,
    bits_of,
    purge_expired,
    storage_entries,
    vectors_mask,
    write_entry,
    write_entry_mask,
)
from repro.overlay.chord import ChordRing
from repro.overlay.node import Node


class TestWriteRead:
    def test_round_trip(self):
        node = Node(1)
        write_entry(node, "docs", vector_id=3, bit=2, expiry=None)
        assert bits_of(vectors_mask(node, "docs", 2)) == [3]

    def test_missing_is_empty(self):
        node = Node(1)
        assert bits_of(vectors_mask(node, "docs", 0)) == []

    def test_metrics_isolated(self):
        node = Node(1)
        write_entry(node, "a", 1, 0, None)
        write_entry(node, "b", 2, 0, None)
        assert bits_of(vectors_mask(node, "a", 0)) == [1]
        assert bits_of(vectors_mask(node, "b", 0)) == [2]

    def test_bits_isolated(self):
        node = Node(1)
        write_entry(node, "a", 1, 0, None)
        write_entry(node, "a", 1, 5, None)
        assert bits_of(vectors_mask(node, "a", 0)) == [1]
        assert bits_of(vectors_mask(node, "a", 5)) == [1]

    def test_duplicate_write_is_single_entry(self):
        node = Node(1)
        write_entry(node, "a", 1, 0, 10)
        write_entry(node, "a", 1, 0, 20)
        assert storage_entries(node) == 1

    def test_storage_entries_counts_all(self):
        node = Node(1)
        for vector in range(5):
            write_entry(node, "a", vector, 0, None)
        write_entry(node, "a", 0, 3, None)
        assert storage_entries(node) == 6


class TestTTL:
    def test_live_until_expiry(self):
        node = Node(1)
        write_entry(node, "a", 1, 0, expiry=10)
        assert bits_of(vectors_mask(node, "a", 0, now=10)) == [1]
        assert bits_of(vectors_mask(node, "a", 0, now=11)) == []

    def test_refresh_extends(self):
        node = Node(1)
        write_entry(node, "a", 1, 0, expiry=10)
        write_entry(node, "a", 1, 0, expiry=30)
        assert bits_of(vectors_mask(node, "a", 0, now=20)) == [1]

    def test_refresh_never_shortens(self):
        node = Node(1)
        write_entry(node, "a", 1, 0, expiry=30)
        write_entry(node, "a", 1, 0, expiry=10)
        assert bits_of(vectors_mask(node, "a", 0, now=20)) == [1]

    def test_none_expiry_is_immortal(self):
        node = Node(1)
        write_entry(node, "a", 1, 0, expiry=None)
        assert bits_of(vectors_mask(node, "a", 0, now=10**9)) == [1]

    def test_purge_removes_expired_only(self):
        node = Node(1)
        write_entry(node, "a", 1, 0, expiry=5)
        write_entry(node, "a", 2, 0, expiry=50)
        removed = purge_expired(node, now=10)
        assert removed == 1
        assert bits_of(vectors_mask(node, "a", 0, now=10)) == [2]

    def test_purge_drops_empty_slots(self):
        node = Node(1)
        write_entry(node, "a", 1, 0, expiry=5)
        purge_expired(node, now=10)
        assert node.store == {}


def _marks(node):
    """What a store change moves: the stamp, the node's mark, its rows."""
    return node.stamp.value, node.changed, node.read_rows


def _changes(node, write):
    """Whether ``write`` marked a store change on ``node``."""
    node.read_rows = {}  # a derived row cache a change must drop
    before = _marks(node)
    write()
    after = _marks(node)
    if after == before:
        return False
    assert after[1] == after[0] and after[2] is None, "a partial mark"
    return True


class TestChangeMarks:
    """A writer marks a store change exactly when the slot changes:
    a vector added, a TTL'd vector promoted or an expiry raised."""

    def test_an_empty_immortal_mask_creates_no_slot(self):
        arena = RegArena(8)
        node = Node(1)
        assert not _changes(node, lambda: write_entry_mask(node, "a", 3, 0))
        assert not _changes(node, lambda: write_entry_mask(node, "a", 3, 0, arena=arena))
        assert node.store == {} and arena.rows_in_use == 0

    def test_an_empty_ttl_mask_creates_no_slot(self):
        node = Node(1)
        assert not _changes(node, lambda: write_entry_mask(node, "a", 3, 0, expiry=9))
        assert node.store == {}

    def test_rewriting_immortal_bits_changes_nothing(self):
        for arena in (None, RegArena(8)):
            node = Node(1)
            assert _changes(node, lambda: write_entry_mask(node, "a", 3, 0b101, arena=arena))
            assert not _changes(node, lambda: write_entry_mask(node, "a", 3, 0b100, arena=arena))
            assert not _changes(node, lambda: write_entry(node, "a", 0, 3, None, arena=arena))
            assert _changes(node, lambda: write_entry_mask(node, "a", 3, 0b110, arena=arena))
            assert vectors_mask(node, "a", 3) == 0b111

    def test_a_ttl_write_under_an_immortal_vector_changes_nothing(self):
        node = Node(1)
        write_entry(node, "a", 2, 3, None)
        assert not _changes(node, lambda: write_entry(node, "a", 2, 3, 50))
        assert not _changes(node, lambda: write_entry_mask(node, "a", 3, 0b100, expiry=50))
        assert node.store["a", 3].expiring is None

    def test_raising_an_expiry_is_a_change_and_lowering_it_is_not(self):
        node = Node(1)
        assert _changes(node, lambda: write_entry(node, "a", 1, 0, 10))
        assert not _changes(node, lambda: write_entry(node, "a", 1, 0, 10))
        assert not _changes(node, lambda: write_entry(node, "a", 1, 0, 5))
        assert _changes(node, lambda: write_entry(node, "a", 1, 0, 12))
        assert not _changes(node, lambda: write_entry_mask(node, "a", 0, 0b10, expiry=12))
        assert _changes(node, lambda: write_entry_mask(node, "a", 0, 0b10, expiry=13))
        assert _changes(node, lambda: write_entry_mask(node, "a", 0, 0b100, expiry=4))
        assert node.store["a", 0].expiring == {1: 13.0, 2: 4.0}

    def test_promoting_a_ttl_vector_is_a_change(self):
        node = Node(1)
        write_entry(node, "a", 1, 0, 10)
        assert _changes(node, lambda: write_entry_mask(node, "a", 0, 0b10))
        assert node.store["a", 0].mask == 0b10 and not node.store["a", 0].expiring


class TestLiveSpan:
    def test_the_mask_holds_through_the_span_and_not_after(self):
        slot = PackedSlot(0b1, {1: 5.0, 2: 8.0, 3: 2.0})
        for now in range(0, 11):
            live, until = slot.live_span(now)
            assert live == slot.live_mask(now)
            for later in range(now, int(min(until, 12)) + 1):
                assert slot.live_mask(later) == live
            if until != float("inf"):
                assert slot.live_mask(int(until) + 1) != live

    def test_immortal_only_never_ends(self):
        assert PackedSlot(0b11).live_span(7) == (0b11, float("inf"))


class TestLeaveMerge:
    def test_heir_keeps_a_foreign_value_and_merges_dhs_slots(self):
        """A graceful leave on a ring carrying a DHS and a baseline counter.

        The counter's ``{"n", "set"}`` dict is not a register slot: the
        DHS leave merge hands it to the heir as it is, while every DHS
        slot the two nodes share is OR-merged.
        """
        ring = ChordRing.build(4, bits=16, seed=3)
        dhs = DistributedHashSketch(
            ring, DHSConfig(key_bits=8, num_bitmaps=4, replication=1), seed=1
        )
        dhs.insert_bulk("docs", range(300), origin=ring.node_ids()[0], now=0)
        counter = SingleNodeCounter(ring, "docs", distinct=True)
        for item in range(50):
            counter.add(item)
        key = ("counter", "docs")
        (leaver,) = [n for n in ring.node_ids() if key in ring.node(n).store]
        heir = ring.successor_id(leaver)
        value = ring.node(leaver).store[key]
        slots = [k for k in ring.node(leaver).store if k != key]
        shared = [k for k in slots if k in ring.node(heir).store]
        assert shared
        expected = {
            k: vectors_mask(ring.node(leaver), *k) | vectors_mask(ring.node(heir), *k)
            for k in slots
        }
        ring.remove_node(leaver, graceful=True)
        assert ring.node(heir).store[key] is value
        assert value == {"n": 0, "set": set(range(50))}
        assert {k: vectors_mask(ring.node(heir), *k) for k in slots} == expected
        assert counter.query().estimate == 50
