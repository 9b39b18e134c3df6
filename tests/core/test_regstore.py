"""Register-array backend: arena mechanics and backend equivalence.

Two layers of coverage:

* Unit tests for :class:`~repro.core.regstore.RegArena` /
  :class:`~repro.core.regstore.RegSlot` — row allocation, growth,
  integer round-trips and the free list.
* A hypothesis suite driving random insert / TTL-expiry / graceful-leave
  / count sequences through two twin deployments — ``store="array"`` and
  the ``store="packed"`` reference backend — and asserting identical
  node-store state (``vectors_mask``) and identical
  :class:`~repro.core.count.CountResult`s at every step.  This is the
  determinism contract of docs/PERFORMANCE.md §"Register-array layout".
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.core.regstore import RegArena, RegSlot
from repro.core.tuples import PackedSlot, storage_entries, vectors_mask, write_entry
from repro.errors import ConfigurationError
from repro.overlay.chord import ChordRing


# ----------------------------------------------------------------------
# Arena mechanics.
# ----------------------------------------------------------------------
class TestRegArena:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RegArena(0)
        with pytest.raises(ConfigurationError):
            RegArena(16, capacity=0)

    def test_words_per_row(self):
        assert RegArena(1).words == 1
        assert RegArena(64).words == 1
        assert RegArena(65).words == 2
        assert RegArena(512).words == 8

    def test_row_roundtrip_wide_mask(self):
        arena = RegArena(130)  # 3 words per row
        row = arena.alloc()
        mask = (1 << 129) | (1 << 64) | 1
        arena.write_row(row, mask)
        assert arena.read_row(row) == mask

    def test_alloc_zeroes_reused_rows(self):
        arena = RegArena(64, capacity=1)
        row = arena.alloc()
        arena.write_row(row, 0xDEAD)
        arena.free(row)
        again = arena.alloc()
        assert again == row
        assert arena.read_row(again) == 0

    def test_free_does_not_zero(self):
        # The __del__-path contract: freeing never writes row data; a
        # recycled row is zeroed once, by the alloc that reuses it.
        arena = RegArena(64)
        row = arena.alloc()
        arena.write_row(row, 0xBEEF)
        arena.free(row)
        assert arena.read_row(row) == 0xBEEF

    def test_grow_preserves_rows(self):
        arena = RegArena(128, capacity=2)
        masks = [(1 << 100) | i for i in range(9)]
        rows = []
        for mask in masks:
            row = arena.alloc()
            arena.write_row(row, mask)
            rows.append(row)
        assert arena.capacity >= 9
        assert [arena.read_row(row) for row in rows] == masks

    def test_rows_in_use(self):
        arena = RegArena(64)
        a, b = arena.alloc(), arena.alloc()
        assert arena.rows_in_use == 2
        arena.free(a)
        assert arena.rows_in_use == 1
        arena.free(b)
        assert arena.rows_in_use == 0

    def test_or_row_words(self):
        arena = RegArena(128)
        row = arena.alloc()
        arena.write_row(row, 1 << 5)
        delta = np.zeros(arena.words, dtype=np.uint64)
        delta[1] = np.uint64(1)  # bit 64
        arena.or_row_words(row, delta)
        assert arena.read_row(row) == (1 << 5) | (1 << 64)


class TestRegSlot:
    def test_mask_property_mirrors_row(self):
        arena = RegArena(128)
        slot = arena.new_slot()
        assert isinstance(slot, RegSlot) and isinstance(slot, PackedSlot)
        slot.mask = (1 << 90) | 1
        assert slot.mask == (1 << 90) | 1
        assert arena.read_row(slot.row) == slot.mask

    def test_or_mask_with_packed_delta(self):
        arena = RegArena(128)
        slot = arena.new_slot()
        slot.mask = 1
        delta = np.zeros(arena.words, dtype=np.uint64)
        delta[1] = np.uint64(1 << 2)  # bit 66
        slot.or_mask(1 << 66, delta)
        assert slot.mask == 1 | (1 << 66)
        assert arena.read_row(slot.row) == slot.mask

    def test_del_recycles_row(self):
        arena = RegArena(64)
        slot = arena.new_slot()
        row = slot.row
        del slot
        gc.collect()
        assert arena.alloc() == row


# ----------------------------------------------------------------------
# live_mask TTL short-circuit.
# ----------------------------------------------------------------------
class _CountingDict(dict):
    """Dict that counts iteration — pins the no-walk fast path."""

    walks = 0

    def items(self):
        type(self).walks += 1
        return super().items()


class TestLiveMaskShortCircuit:
    def test_no_dict_walk_before_first_expiry(self):
        slot = PackedSlot(mask=0b1)
        slot.expiring = _CountingDict({3: 10.0, 4: 20.0})
        slot._recompute_ttl_cache()
        _CountingDict.walks = 0
        # now <= _ttl_min (10): every TTL'd vector is provably live.
        assert slot.live_mask(0) == 0b1 | (1 << 3) | (1 << 4)
        assert slot.live_mask(10) == 0b1 | (1 << 3) | (1 << 4)
        assert _CountingDict.walks == 0
        # Past the earliest expiry the dict walk is required.
        assert slot.live_mask(11) == 0b1 | (1 << 4)
        assert _CountingDict.walks == 1

    def test_refresh_keeps_short_circuit_conservative(self):
        node_mask_bit = 1 << 2
        slot = PackedSlot()
        slot.expiring = {2: 5.0}
        slot._recompute_ttl_cache()
        # Max-wins refresh leaves _ttl_min at the stale lower bound 5 —
        # the short circuit fires less often but never wrongly.
        slot.expiring[2] = 50.0
        assert slot._ttl_min == 5.0
        assert slot.live_mask(30) == node_mask_bit  # dict walk, still live


# ----------------------------------------------------------------------
# Backend equivalence: array vs packed, end to end.
# ----------------------------------------------------------------------
METRICS = ("docs", "users", "hosts")


def _build_pair(seed, ttl):
    config = dict(key_bits=12, num_bitmaps=16, ttl=ttl)
    pair = []
    for store in ("array", "packed"):
        ring = ChordRing.build(16, bits=16, seed=seed)
        pair.append(
            DistributedHashSketch(
                ring, DHSConfig(store=store, **config), seed=seed
            )
        )
    return pair


def _count_view(result):
    cost = result.cost
    return (
        result.estimates,
        result.probes,
        result.probed_ids,
        result.intervals_scanned,
        result.degraded,
        (cost.hops, cost.messages, cost.bytes, cost.lookups, cost.timeouts),
    )


def _cost_view(cost):
    return (cost.hops, cost.messages, cost.bytes, cost.lookups, cost.timeouts)


def _assert_stores_identical(dhs_a, dhs_p, now):
    assert list(dhs_a.dht.node_ids()) == list(dhs_p.dht.node_ids())
    for node_id in dhs_a.dht.node_ids():
        node_a = dhs_a.dht.node(node_id)
        node_p = dhs_p.dht.node(node_id)
        assert set(node_a.store) == set(node_p.store)
        for metric, bit in node_a.store:
            assert vectors_mask(node_a, metric, bit, now) == vectors_mask(
                node_p, metric, bit, now
            )
            slot_a, slot_p = node_a.store[(metric, bit)], node_p.store[(metric, bit)]
            assert slot_a == slot_p  # mask + expiring, backend-agnostic
            if isinstance(slot_a, RegSlot):
                # Row-sync invariant: the arena row always mirrors _mask.
                assert slot_a.arena.read_row(slot_a.row) == slot_a.mask
        assert storage_entries(node_a) == storage_entries(node_p)


def op_strategy():
    insert = st.tuples(
        st.just("insert"),
        st.sampled_from(METRICS),
        st.integers(1, 400),  # item count
        st.integers(0, 5),  # base offset (overlap across inserts)
        st.integers(0, 12),  # now
    )
    sweep = st.tuples(st.just("sweep"), st.integers(0, 40))
    leave = st.tuples(st.just("leave"), st.integers(0, 15))
    count = st.tuples(st.just("count"), st.sampled_from(METRICS), st.integers(0, 40))
    return st.one_of(insert, sweep, leave, count)


class TestBackendEquivalence:
    @given(
        seed=st.integers(0, 2**16),
        ttl=st.sampled_from([None, 8]),
        ops=st.lists(op_strategy(), min_size=1, max_size=10),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_histories_identical(self, seed, ttl, ops):
        dhs_a, dhs_p = _build_pair(seed, ttl)
        latest = 0
        for op in ops:
            if op[0] == "insert":
                _, metric, n, base, now = op
                items = np.arange(base * 100, base * 100 + n, dtype=np.int64)
                cost_a = dhs_a.insert_array(metric, items, now=now)
                cost_p = dhs_p.insert_array(metric, items, now=now)
                assert _cost_view(cost_a) == _cost_view(cost_p)
                latest = max(latest, now)
            elif op[0] == "sweep":
                _, now = op
                assert dhs_a.sweep_expired(now) == dhs_p.sweep_expired(now)
                latest = max(latest, now)
            elif op[0] == "leave":
                _, pick = op
                ids = list(dhs_a.dht.node_ids())
                if len(ids) <= 2:
                    continue
                victim = ids[pick % len(ids)]
                dhs_a.dht.remove_node(victim, graceful=True)
                dhs_p.dht.remove_node(victim, graceful=True)
            else:
                _, metric, now = op
                result_a = dhs_a.count(metric, now=now)
                result_p = dhs_p.count(metric, now=now)
                assert _count_view(result_a) == _count_view(result_p)
            _assert_stores_identical(dhs_a, dhs_p, latest)

    def test_scalar_and_bulk_paths_identical(self):
        dhs_a, dhs_p = _build_pair(99, None)
        items = list(range(50))
        assert _cost_view(dhs_a.insert_many("docs", items)) == _cost_view(
            dhs_p.insert_many("docs", items)
        )
        assert _cost_view(dhs_a.insert_bulk("users", items)) == _cost_view(
            dhs_p.insert_bulk("users", items)
        )
        _assert_stores_identical(dhs_a, dhs_p, 0)
        for metric in ("docs", "users"):
            assert _count_view(dhs_a.count(metric)) == _count_view(dhs_p.count(metric))

    def test_ttl_refresh_paths_identical(self):
        dhs_a, dhs_p = _build_pair(7, 10)
        items = list(range(40))
        for dhs in (dhs_a, dhs_p):
            dhs.insert_bulk("docs", items, now=0)
            dhs.refresh("docs", items[:20], now=5)
            dhs.sweep_expired(11)
        _assert_stores_identical(dhs_a, dhs_p, 11)
        assert _count_view(dhs_a.count("docs", now=11)) == _count_view(
            dhs_p.count("docs", now=11)
        )

    def test_write_entry_mixed_backend_promotion(self):
        # A TTL'd vector promoted to immortal must not double-count on
        # either backend.
        for arena in (None, RegArena(16)):
            from repro.overlay.node import Node

            node = Node(0)
            write_entry(node, "docs", 3, 1, expiry=10, arena=arena)
            write_entry(node, "docs", 3, 1, expiry=None, arena=arena)
            assert storage_entries(node) == 1
            slot = node.store[("docs", 1)]
            assert slot.mask == 1 << 3 and not slot.expiring
