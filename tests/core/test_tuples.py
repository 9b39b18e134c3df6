"""Tests for DHS node-store entries and soft-state semantics."""

from repro.core.tuples import (
    bits_of,
    merge_store_values,
    purge_expired,
    storage_entries,
    vectors_mask,
    write_entry,
)
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


class TestMerge:
    def test_merge_none_existing(self):
        assert merge_store_values(None, {1: 5.0}) == {1: 5.0}

    def test_merge_unions_vectors(self):
        merged = merge_store_values({1: 5.0}, {2: 7.0})
        assert merged == {1: 5.0, 2: 7.0}

    def test_merge_keeps_later_expiry(self):
        assert merge_store_values({1: 5.0}, {1: 9.0}) == {1: 9.0}
        assert merge_store_values({1: 9.0}, {1: 5.0}) == {1: 9.0}

    def test_merge_does_not_mutate_inputs(self):
        existing, incoming = {1: 5.0}, {2: 7.0}
        merge_store_values(existing, incoming)
        assert existing == {1: 5.0}
        assert incoming == {2: 7.0}
