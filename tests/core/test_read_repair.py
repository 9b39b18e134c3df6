"""Tests for the self-healing paths: counting read-repair and homecoming."""

import pytest

from repro.core.config import DHSConfig
from repro.core.count import CountResult
from repro.core.dhs import DistributedHashSketch
from repro.core.tuples import vectors_mask, write_entry
from repro.errors import ConfigurationError
from repro.overlay.chord import ChordRing
from repro.overlay.faults import FaultEvent, FaultInjector, FaultPlan
from repro.overlay.stats import OpCost

# 16-bit space; with key_bits=8 and m=1 position 0 maps to [32768, 65536).
IDS = [100, 20000, 33000, 40000, 50000, 60000]
KEY = 32900  # owned by 33000


def make_dhs(dht, replication=2, read_repair=True):
    config = DHSConfig(
        key_bits=8, num_bitmaps=1, lim=10,
        replication=replication, read_repair=read_repair,
    )
    return DistributedHashSketch(dht, config, seed=1)


def probe_once(dhs, origin=33000):
    counter = dhs._counter
    result = CountResult(
        estimates={}, sketches={}, cost=OpCost(), confidence={"m": 1.0}
    )
    counter._probe_interval(
        counter.mapping.interval_index(0), 0, [0b1],
        counter._begin_scan(["m"], origin, 0, result, None), key=KEY,
    )
    return result


class TestReadRepair:
    def test_config_requires_replication(self):
        with pytest.raises(ConfigurationError):
            DHSConfig(read_repair=True, replication=0)

    def test_probe_rewrites_missing_replicas(self):
        ring = ChordRing.from_ids(IDS, bits=16)
        dhs = make_dhs(ring)
        # The bit lives only on the primary: both replicas lost it.
        write_entry(ring.node(33000), "m", 0, 0, None)
        result = probe_once(dhs)
        for replica in (40000, 50000):
            assert vectors_mask(ring.node(replica), "m", 0) == 0b1
        # One write to each of the two replicas: a hop and a tuple each.
        assert result.cost.repair_writes == 2

    def test_repair_cost_is_accounted(self):
        ring = ChordRing.from_ids(IDS, bits=16)
        baseline = probe_once(make_dhs(ChordRing.from_ids(IDS, bits=16)))
        write_entry(ring.node(33000), "m", 0, 0, None)
        repaired = probe_once(make_dhs(ring))
        # The found bit ends the walk early, but the two repair writes
        # each charge a hop, a message and the copied tuple bytes.
        assert repaired.cost.repair_writes == 2
        assert repaired.cost.messages >= 2
        tuple_bytes = DHSConfig().size_model.tuple_bytes
        assert repaired.cost.bytes >= 2 * tuple_bytes

    def test_no_repair_when_disabled(self):
        ring = ChordRing.from_ids(IDS, bits=16)
        dhs = make_dhs(ring, read_repair=False)
        write_entry(ring.node(33000), "m", 0, 0, None)
        result = probe_once(dhs)
        assert result.cost.repair_writes == 0
        assert vectors_mask(ring.node(40000), "m", 0) == 0

    def test_replicas_already_current_cost_nothing(self):
        ring = ChordRing.from_ids(IDS, bits=16)
        dhs = make_dhs(ring)
        for node_id in (33000, 40000, 50000):
            write_entry(ring.node(node_id), "m", 0, 0, None)
        result = probe_once(dhs)
        assert result.cost.repair_writes == 0

    def test_repair_preserves_ttl(self):
        ring = ChordRing.from_ids(IDS, bits=16)
        dhs = make_dhs(ring)
        write_entry(ring.node(33000), "m", 0, 0, 10)  # expires at 10
        probe_once(dhs)
        replica = ring.node(40000)
        assert vectors_mask(replica, "m", 0, now=9) == 0b1
        assert vectors_mask(replica, "m", 0, now=11) == 0

    def test_unresponsive_replica_skipped(self):
        ring = ChordRing.from_ids(IDS, bits=16)
        plan = FaultPlan(
            events=(FaultEvent("transient", at=1, node_ids=(40000,), duration=9),)
        )
        injector = FaultInjector(ring, plan, seed=0)
        dhs = make_dhs(injector)
        write_entry(ring.node(33000), "m", 0, 0, None)
        injector.advance_to(1)
        result = probe_once(dhs)
        # Only the reachable replica is repaired; the down one is not
        # written to (and not crashed either — it comes back later).
        assert vectors_mask(ring.node(50000), "m", 0) == 0b1
        assert vectors_mask(ring.node(40000), "m", 0) == 0
        assert result.cost.repair_writes == 1


class TestIntervalHandoff:
    """Spilled replicas are brought back to the counting walk's reach.

    With ``key_bits=8`` over this 16-bit ring, the position-2 interval
    ``[8192, 16384)`` holds no nodes: every key in it is owned by the
    overflow node 20000, and the R=2 replicas of anything stored there
    live on 33000/40000.  If the owner crashes and rejoins empty
    (amnesia), the bits survive only on those replicas — which the
    interval-bounded walk never probes, so a count confidently misses
    them.  An anti-entropy round's homecoming must return the bits to
    the owner.
    """

    def _spilled_ring(self):
        ring = ChordRing.from_ids(IDS, bits=16)
        for node_id in (33000, 40000):
            write_entry(ring.node(node_id), "docs", 0, 2, None)
        return ring

    def test_facade_hands_bits_back_to_overflow_owner(self):
        ring = self._spilled_ring()
        dhs = make_dhs(ring, read_repair=False)
        stats = dhs.antientropy(0)
        # Exactly one write: pair (20000, 33000) brings the bit home to
        # 20000, the owner of every key in [8192, 16384).  From then on
        # 20000 holds it, so pair (20000, 40000) has nothing to return
        # and 33000 is no longer primary for it.
        assert vectors_mask(ring.node(20000), "docs", 2) == 0b1
        assert stats.entries_written == 1

    def test_handoff_restores_count_visibility(self):
        ring = self._spilled_ring()
        # Keep vector 0 alive through positions 0 and 1 so the scan
        # reaches position 2 (both holders are inside their intervals).
        write_entry(ring.node(33000), "docs", 0, 0, None)
        write_entry(ring.node(20000), "docs", 0, 1, None)
        dhs = make_dhs(ring, read_repair=False)
        before = dhs.count("docs").estimate()
        dhs.antientropy(0)
        after = dhs.count("docs").estimate()
        assert (before, after) == pytest.approx((0.25, 0.5), rel=1e-3)

    def test_second_sweep_is_free(self):
        ring = self._spilled_ring()
        dhs = make_dhs(ring, read_repair=False)
        dhs.antientropy(0)
        assert dhs.antientropy(0).entries_written == 0

    def test_overflow_past_a_member_at_the_top_key_is_visible(self):
        """0xFFFF sits at ``hi - 1`` of [32768, 65536) and owns the top
        key, yet the walk steps once past it, to 7: a bit held at 7 (and
        at its R=1 chain successor 40000) is already read, so there is
        nothing to bring home."""
        ring = ChordRing.from_ids([7, 40000, 0xFFFF], bits=16)
        for node_id in (7, 40000):
            write_entry(ring.node(node_id), "m", 0, 0, None)
        stats = make_dhs(ring, replication=1, read_repair=False).antientropy(0)
        assert stats.entries_written == 0
        assert vectors_mask(ring.node(0xFFFF), "m", 0) == 0
