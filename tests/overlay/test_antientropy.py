"""Tests for replica-chain anti-entropy (repro.overlay.antientropy).

Covers the pairwise reconciliation protocol (push / homecoming,
OR-merge, expiry preservation, digest-floor bandwidth, segment
locality of what is shipped) and the convergence property the whole
subsystem exists for — including the order-independence property test
(any reconciliation schedule over any divergent pair lands on the
identical bit state).  A store's live state is its ``ChainView``
unpacked, what a round compares.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.core.maintenance import antientropy_sweep, replica_divergence
from repro.core.tuples import vectors_mask, write_entry
from repro.overlay.antientropy import AntiEntropyStats
from repro.overlay.chord import ChordRing
from repro.overlay.faults import FaultEvent, FaultInjector, FaultPlan
from repro.overlay.messages import DEFAULT_SIZE_MODEL
from repro.overlay.replication import ChainView
from tests.overlay.antientropy_oracle import sync_stores

# 16-bit space, same geometry as tests/core/test_read_repair.py.
IDS = [100, 20000, 33000, 40000, 50000, 60000]


def make_ring():
    return ChordRing.from_ids(IDS, bits=16)


def segment_of(bit: int) -> int:
    return bit // 4


def live_view(dht, node_id, now=0):
    """``node_id``'s live register state at ``now``: ``{key: bitmap}``."""
    view = ChainView(dht, now)
    return view.unpack(node_id, view.packed(node_id))


def write_fn(node, metric, vector, bit, expiry):
    write_entry(node, metric, vector, bit, expiry)


def full_sync(dht, left, right, now=0, stats=None):
    return sync_stores(
        dht, left, right, now,
        segment_of=segment_of, write_fn=write_fn, stats=stats,
    )


class TestSyncStores:
    def test_or_merge_both_directions(self):
        ring = make_ring()
        write_entry(ring.node(100), "m", 0, 2, None)
        write_entry(ring.node(20000), "m", 1, 2, None)
        write_entry(ring.node(20000), "m", 2, 6, None)
        stats = full_sync(ring, 100, 20000)
        for node_id in (100, 20000):
            assert vectors_mask(ring.node(node_id), "m", 2) == 0b11
            assert vectors_mask(ring.node(node_id), "m", 6) == 0b100
        assert stats.entries_written == 3
        assert stats.pairs_converged == 0  # was divergent this round

    def test_expiry_travels_with_entry(self):
        ring = make_ring()
        write_entry(ring.node(100), "m", 0, 2, 17)
        full_sync(ring, 100, 20000, now=0)
        slot = ring.node(20000).store[("m", 2)]
        assert slot.expiring is not None and slot.expiring[0] == 17

    def test_converged_pair_pays_only_the_digest_floor(self):
        ring = make_ring()
        for node_id in (100, 20000):
            write_entry(ring.node(node_id), "m", 3, 5, None)
        stats = full_sync(ring, 100, 20000)
        assert stats.pairs_converged == 1
        assert stats.entries_written == 0
        # Two directions x one root exchange x two digest messages.
        assert stats.cost.messages == 4
        assert stats.cost.bytes == 4 * DEFAULT_SIZE_MODEL.digest_bytes

    def test_mismatch_charges_segments_and_summaries(self):
        ring = make_ring()
        write_entry(ring.node(100), "m", 0, 2, None)
        stats = full_sync(ring, 100, 20000)
        floor = 4 * DEFAULT_SIZE_MODEL.digest_bytes
        assert stats.cost.bytes > floor
        assert stats.segments_mismatched >= 1
        assert stats.entries_sent == stats.entries_written == 1

    def test_mismatch_ships_only_its_segment(self):
        ring = make_ring()
        for node_id in (100, 20000):
            write_entry(ring.node(node_id), "m", 3, 1, None)   # segment 0
            write_entry(ring.node(node_id), "m", 1, 9, None)   # segment 2
        write_entry(ring.node(100), "m", 5, 9, None)           # diverge seg 2
        stats = full_sync(ring, 100, 20000)
        assert stats.segments_checked == 2
        assert stats.segments_mismatched == 1
        # Segment 2's offered entries: vectors 1 and 5 of ("m", 9).
        assert stats.entries_sent == 2
        assert stats.entries_written == 1
        assert live_view(ring, 100) == live_view(ring, 20000)

    def test_expired_entries_are_not_offered(self):
        """Live state is what a round compares: an entry live on both
        sides (whatever its expiries), dead on both, or dead on its
        only holder is no difference."""
        for expiries, now in [((5, 9), 5), ((5, 9), 10), ((5, None), 7)]:
            ring = make_ring()
            for node_id, expiry in zip((100, 20000), expiries):
                if expiry is not None:
                    write_entry(ring.node(node_id), "m", 0, 1, expiry)
            stats = full_sync(ring, 100, 20000, now=now)
            assert stats.pairs_converged == 1
            assert stats.entries_written == 0
            assert live_view(ring, 100, now) == live_view(ring, 20000, now)

    def test_entry_expired_on_one_side_is_shipped_from_the_other(self):
        ring = make_ring()
        write_entry(ring.node(100), "m", 0, 1, 5)
        write_entry(ring.node(20000), "m", 0, 1, 9)
        stats = full_sync(ring, 100, 20000, now=7)
        assert stats.entries_written == 1
        assert ring.node(100).store[("m", 1)].expiring[0] == 9
        assert live_view(ring, 100, 7) == live_view(ring, 20000, 7)

    def test_sync_reaches_digest_fixed_point(self):
        ring = make_ring()
        write_entry(ring.node(100), "m", 0, 2, None)
        write_entry(ring.node(20000), "m", 5, 11, None)
        full_sync(ring, 100, 20000)
        again = full_sync(ring, 100, 20000)
        assert again.pairs_converged == 1
        assert again.entries_written == 0
        assert live_view(ring, 100) == live_view(ring, 20000)


# Entries to seed each side with: (vector, bit) pairs in a small range.
entry = st.tuples(st.integers(0, 7), st.integers(0, 15))
entries = st.lists(entry, max_size=12)


class TestConvergenceProperty:
    @given(left=entries, right=entries, late=entries, order=st.permutations([0, 1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_any_schedule_converges_to_bit_identical_state(
        self, left, right, late, order
    ):
        """Satellite property: reconciliation order does not matter.

        Two replicas start divergent; syncs run in an arbitrary order,
        with more inserts interleaved between them; after a final full
        exchange both stores hold the identical live state — the OR of
        everything either side ever saw — and their live views agree.
        """
        ring = make_ring()
        for vector, bit in left:
            write_entry(ring.node(100), "m", vector, bit, None)
        for vector, bit in right:
            write_entry(ring.node(20000), "m", vector, bit, None)
        schedule = {
            0: lambda: full_sync(ring, 100, 20000),
            1: lambda: full_sync(ring, 20000, 100),
            2: lambda: [
                write_entry(ring.node(100 if i % 2 else 20000), "m", v, b, None)
                for i, (v, b) in enumerate(late)
            ],
        }
        for step in order:
            schedule[step]()
        full_sync(ring, 100, 20000)
        expected = {}
        for vector, bit in left + right + late:
            expected[bit] = expected.get(bit, 0) | (1 << vector)
        for node_id in (100, 20000):
            for bit, mask in expected.items():
                assert vectors_mask(ring.node(node_id), "m", bit) == mask
        assert live_view(ring, 100) == live_view(ring, 20000)


class TestSweep:
    def make_dhs(self, store="array"):
        ring = make_ring()
        plan = FaultPlan(events=(FaultEvent("amnesia", at=1, fraction=0.3, duration=2),))
        injector = FaultInjector(ring, plan, seed=4)
        dhs = DistributedHashSketch(
            injector,
            DHSConfig(
                key_bits=8, num_bitmaps=4, replication=2,
                read_repair=True, store=store,
            ),
            seed=1,
        )
        dhs.insert_bulk("docs", range(300), origin=100, now=0)
        return injector, dhs

    @pytest.mark.parametrize("store", ["packed", "array"])
    def test_amnesia_divergence_healed_in_bounded_rounds(self, store):
        """Repairs cascade one chain hop per round; divergence must hit
        zero within a couple of rounds, not asymptotically."""
        injector, dhs = self.make_dhs(store)
        injector.advance_to(3)  # victims back, stores empty
        assert dhs.replica_divergence(3) > 0
        first = dhs.antientropy(3)
        assert first.entries_written > 0
        dhs.antientropy(3)
        assert dhs.replica_divergence(3) == 0

    def test_rounds_reach_the_write_free_fixed_point(self):
        injector, dhs = self.make_dhs()
        injector.advance_to(3)
        for _ in range(6):
            if dhs.antientropy(3).entries_written == 0:
                break
        else:
            pytest.fail("anti-entropy never reached the write-free fixed point")
        settled = dhs.antientropy(3)
        assert settled.entries_written == 0
        assert settled.pairs_converged == settled.pairs
        # Converged rounds cost exactly the digest floor: two root
        # digests per direction, two directions per pair.
        assert settled.cost.bytes == (
            settled.pairs * 4 * DEFAULT_SIZE_MODEL.digest_bytes
        )

    def test_disabled_replication_is_a_noop(self):
        ring = make_ring()
        dhs = DistributedHashSketch(
            ring, DHSConfig(key_bits=8, num_bitmaps=4), seed=1
        )
        dhs.insert_bulk("docs", range(100), origin=100, now=0)
        stats = dhs.antientropy(0)
        assert stats == AntiEntropyStats()
        assert dhs.replica_divergence(0) == 0

    def test_sampled_round_is_deterministic(self):
        results = []
        for _ in range(2):
            injector, dhs = self.make_dhs()
            injector.advance_to(3)
            stats = dhs.antientropy(3, sample=2, rng=random.Random(9))
            results.append((stats.pairs, stats.entries_written, stats.cost.bytes))
        assert results[0] == results[1]
        assert results[0][0] <= 2 * 2  # at most sample x degree pairs

    @pytest.mark.parametrize(
        "sample, rng_seed, names",
        [(2, None, "rng"), (0, 9, "sample"), (-1, 9, "sample")],
    )
    def test_unusable_sample_is_rejected_not_ignored(self, sample, rng_seed, names):
        """A ``sample`` that cannot be drawn must not become a full round."""
        injector, dhs = self.make_dhs()
        injector.advance_to(3)
        rng = None if rng_seed is None else random.Random(rng_seed)
        with pytest.raises(ValueError, match=names):
            dhs.antientropy(3, sample=sample, rng=rng)

    def test_estimates_unchanged_by_reconciliation(self):
        """OR-merge adds no (vector, bit) values a count could not see."""
        ring = make_ring()
        dhs = DistributedHashSketch(
            ring,
            DHSConfig(key_bits=8, num_bitmaps=4, replication=2, read_repair=True),
            seed=1,
        )
        dhs.insert_bulk("docs", range(400), origin=100, now=0)
        before = dhs.count("docs", origin=100, now=0).estimate()
        dhs.antientropy(0)
        after = dhs.count("docs", origin=100, now=0).estimate()
        assert before == after
