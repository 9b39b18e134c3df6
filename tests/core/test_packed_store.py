"""Packed-bitmap store vs a plain-dict reference model.

``core/tuples.py`` stores one :class:`PackedSlot` per ``(metric, bit)``
key: an integer mask of immortal vectors plus a lazy ``{vector: expiry}``
dict for TTL'd entries.  These tests drive the packed implementation and
an obviously-correct ``{(metric, bit): {vector: expiry}}`` dict model
through the same operation sequences — per-vector and whole-bitmap
writes, TTL expiry, refresh (max-wins), and immortality dominating TTL —
and require identical observable behaviour at every step.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tuples import (
    PackedSlot,
    bits_of,
    merge_store_values,
    purge_expired,
    storage_entries,
    vectors_mask,
    write_entry,
    write_entry_mask,
)
from repro.overlay.node import Node

METRICS = ("docs", "users")
MAX_VECTOR = 8
MAX_BIT = 4


class ReferenceStore:
    """The pre-packed layout: ``{(metric, bit): {vector: expiry}}``.

    Immortal entries are modelled as ``inf`` expiry; refresh is max-wins,
    so immortality can never be shortened by a later TTL write.
    """

    def __init__(self):
        self.slots = {}

    def write(self, metric, vector, bit, expiry):
        slot = self.slots.setdefault((metric, bit), {})
        new = math.inf if expiry is None else float(expiry)
        current = slot.get(vector)
        if current is None or new > current:
            slot[vector] = new

    def vectors(self, metric, bit, now):
        slot = self.slots.get((metric, bit), {})
        return sorted(v for v, expiry in slot.items() if expiry >= now)

    def purge(self, now):
        removed = 0
        for key in list(self.slots):
            slot = self.slots[key]
            for vector in [v for v, e in slot.items() if e < now]:
                del slot[vector]
                removed += 1
            if not slot:
                del self.slots[key]
        return removed

    def entries(self):
        return sum(len(slot) for slot in self.slots.values())


def write_op():
    return st.tuples(
        st.just("write"),
        st.sampled_from(METRICS),
        st.integers(0, MAX_VECTOR - 1),
        st.integers(0, MAX_BIT - 1),
        st.one_of(st.none(), st.integers(0, 20)),
    )


def mask_op():
    """A whole-bitmap write, the form every insert reaches a node in."""
    return st.tuples(
        st.just("mask"),
        st.sampled_from(METRICS),
        st.integers(0, (1 << MAX_VECTOR) - 1),
        st.integers(0, MAX_BIT - 1),
        st.one_of(st.none(), st.integers(0, 20)),
    )


def purge_op():
    return st.tuples(st.just("purge"), st.integers(0, 25))


def assert_same_view(node, ref, now):
    for metric in METRICS:
        for bit in range(MAX_BIT):
            expected = ref.vectors(metric, bit, now)
            assert bits_of(vectors_mask(node, metric, bit, now)) == expected
            mask = vectors_mask(node, metric, bit, now)
            assert bits_of(mask) == expected
    assert storage_entries(node) == ref.entries()


class TestPackedMatchesReference:
    @given(
        ops=st.lists(st.one_of(write_op(), mask_op(), purge_op()), max_size=60),
        now=st.integers(0, 25),
    )
    @settings(max_examples=200, deadline=None)
    def test_operation_sequences(self, ops, now):
        node = Node(0)
        ref = ReferenceStore()
        for op in ops:
            if op[0] == "write":
                _, metric, vector, bit, expiry = op
                write_entry(node, metric, vector, bit, expiry)
                ref.write(metric, vector, bit, expiry)
            elif op[0] == "mask":
                _, metric, mask, bit, expiry = op
                write_entry_mask(node, metric, bit, mask, expiry=expiry)
                for vector in bits_of(mask):
                    ref.write(metric, vector, bit, expiry)
            else:
                _, purge_now = op
                assert purge_expired(node, purge_now) == ref.purge(purge_now)
        assert_same_view(node, ref, now)

    @given(
        ops=st.lists(write_op(), min_size=1, max_size=40),
        purge_times=st.lists(st.integers(0, 25), max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_interleaved_purges_keep_views_aligned(self, ops, purge_times):
        node = Node(0)
        ref = ReferenceStore()
        times = iter(purge_times)
        for i, (_, metric, vector, bit, expiry) in enumerate(ops):
            write_entry(node, metric, vector, bit, expiry)
            ref.write(metric, vector, bit, expiry)
            if i % 7 == 3:
                purge_now = next(times, None)
                if purge_now is not None:
                    assert purge_expired(node, purge_now) == ref.purge(purge_now)
                    assert_same_view(node, ref, purge_now)
        assert_same_view(node, ref, 0)


class TestTTLSemantics:
    def test_entry_expires(self):
        node = Node(0)
        write_entry(node, "docs", 2, 1, expiry=10)
        assert bits_of(vectors_mask(node, "docs", 1, now=10)) == [2]  # inclusive bound
        assert bits_of(vectors_mask(node, "docs", 1, now=11)) == []

    def test_refresh_extends_max_wins(self):
        node = Node(0)
        write_entry(node, "docs", 2, 1, expiry=10)
        write_entry(node, "docs", 2, 1, expiry=30)
        assert bits_of(vectors_mask(node, "docs", 1, now=20)) == [2]
        # A later, shorter TTL must not shorten the stored expiry.
        write_entry(node, "docs", 2, 1, expiry=5)
        assert bits_of(vectors_mask(node, "docs", 1, now=20)) == [2]

    def test_immortal_dominates_ttl(self):
        node = Node(0)
        write_entry(node, "docs", 2, 1, expiry=10)
        write_entry(node, "docs", 2, 1, expiry=None)
        assert purge_expired(node, now=1000) == 0
        assert bits_of(vectors_mask(node, "docs", 1, now=10**6)) == [2]
        # ... and a TTL written after immortality is a no-op.
        write_entry(node, "docs", 2, 1, expiry=3)
        slot = node.store[("docs", 1)]
        assert not slot.expiring
        assert bits_of(vectors_mask(node, "docs", 1, now=10**6)) == [2]

    def test_purge_drops_empty_slots(self):
        node = Node(0)
        write_entry(node, "docs", 2, 1, expiry=5)
        write_entry(node, "docs", 3, 2, expiry=None)
        assert purge_expired(node, now=6) == 1
        assert ("docs", 1) not in node.store
        assert ("docs", 2) in node.store
        assert storage_entries(node) == 1


class TestMergeStoreValues:
    def test_packed_merge_unions_and_max_wins(self):
        a = PackedSlot(mask=0b0011, expiring={5: 10.0, 6: 40.0})
        b = PackedSlot(mask=0b0100, expiring={5: 20.0})
        merged = merge_store_values(a, b)
        assert isinstance(merged, PackedSlot)
        assert merged.mask == 0b0111
        assert merged.expiring == {5: 20.0, 6: 40.0}

    def test_packed_merge_drops_ttl_shadowed_by_immortal(self):
        a = PackedSlot(mask=0b0010, expiring=None)
        b = PackedSlot(mask=0, expiring={1: 50.0, 3: 9.0})
        merged = merge_store_values(a, b)
        assert merged.mask == 0b0010
        assert merged.expiring == {3: 9.0}

    def test_merge_into_empty(self):
        incoming = PackedSlot(mask=0b101, expiring={4: 7.0})
        merged = merge_store_values(None, incoming)
        assert merged.mask == 0b101
        assert merged.expiring == {4: 7.0}

    @given(
        mask_a=st.integers(0, 2**MAX_VECTOR - 1),
        mask_b=st.integers(0, 2**MAX_VECTOR - 1),
        ttl_a=st.dictionaries(
            st.integers(0, MAX_VECTOR - 1), st.floats(0, 50), max_size=4
        ),
        ttl_b=st.dictionaries(
            st.integers(0, MAX_VECTOR - 1), st.floats(0, 50), max_size=4
        ),
        now=st.integers(0, 50),
    )
    @settings(max_examples=150, deadline=None)
    def test_merge_equals_replaying_both_write_streams(self, mask_a, mask_b, ttl_a, ttl_b, now):
        """merge(a, b) must look exactly like writing both slots' entries."""
        slot_a = PackedSlot(mask_a, {v: e for v, e in ttl_a.items() if not mask_a >> v & 1} or None)
        slot_b = PackedSlot(mask_b, {v: e for v, e in ttl_b.items() if not mask_b >> v & 1} or None)
        merged = merge_store_values(slot_a, slot_b)

        node = Node(0)
        for slot in (slot_a, slot_b):
            for vector in bits_of(slot.mask):
                write_entry(node, "m", vector, 0, expiry=None)
            for vector, expiry in (slot.expiring or {}).items():
                write_entry(node, "m", vector, 0, expiry=expiry)

        replayed = node.store.get(("m", 0))
        if replayed is None:  # nothing to replay: both slots were empty
            replayed = PackedSlot()
        assert merged.live_mask(now) == replayed.live_mask(now)
        assert merged.entries() == replayed.entries()
