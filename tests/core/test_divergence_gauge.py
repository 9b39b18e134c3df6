"""The facade's divergence gauge against a brute-force recount.

``DistributedHashSketch.replica_divergence(now)`` runs right after the
tick's anti-entropy round in every soak, so it may read state that round
already holds.  Whatever it reuses, it must read exactly what
``tests/overlay/antientropy_oracle.replica_divergence`` recounts from
the stores, the membership and the fault state as they are when the
gauge is asked.

The first half ticks a small faulty deployment (crash, amnesia, a
partition, a lazy crash, TTL expiry, read-repairing counts and joiners)
through the facade with full rounds, sampled rounds and no rounds, and
compares the two after every tick.

The second half puts one change between ``dhs.antientropy(now)`` and
the gauge, each one that must make the gauge read the deployment
afresh: an insert, a read-repairing count, a join, a graceful leave, a
crash, a lazy crash, an amnesia rejoin, a partition starting or ending,
the next tick, and a sweep.  Every change but the sweep moves the
recount, so a gauge that read the round's state stale would differ
from it.

The last part pins what the reuse rests on: right after its tick's
round the gauge builds no view of its own, and the DHT's change stamp
moves at every store write, sweep that frees an entry, join, leave,
crash, lazy crash, fault-clock step and amnesia wipe, but not for a
round that writes nothing, the gauge or a sweep that frees nothing.
"""

import pytest

from repro.core.config import DHSConfig
from repro.core import maintenance
from repro.core.dhs import DistributedHashSketch
from repro.core.maintenance import MaintenanceConfig
from repro.core.policy import RetryPolicy
from repro.core.tuples import purge_expired, write_entry
from repro.overlay.chord import ChordRing
from repro.overlay.faults import FaultEvent, FaultInjector, FaultPlan
from repro.sim.seeds import rng_for
from tests.overlay import antientropy_oracle as oracle

N_NODES = 16
SEED = 11
R = 2
CONFIG = DHSConfig(
    key_bits=10, num_bitmaps=16, replication=R, read_repair=True, ttl=3
)
POLICY = RetryPolicy(max_attempts=3, backoff_hops=1)


def deployment(events=()):
    ring = ChordRing.build(N_NODES, seed=SEED)
    dht = FaultInjector(ring, FaultPlan(events=tuple(events)), seed=SEED)
    return dht, DistributedHashSketch(dht, CONFIG, seed=SEED, policy=POLICY)


def recount(dht, now):
    return oracle.replica_divergence(dht, R, now)


def top_up(dht, rng):
    """Empty joiners replace crashed nodes: chains with missing copies."""
    while len(dht.node_ids()) < N_NODES:
        joiner = rng.randrange(dht.space.size)
        if not dht.has_node(joiner):
            dht.add_node(joiner)


SOAK_EVENTS = (
    FaultEvent("crash", at=3, fraction=0.15),
    FaultEvent("amnesia", at=5, fraction=0.15, duration=3),
    FaultEvent("partition", at=9, fraction=0.2, duration=3),
    FaultEvent("lazy_crash", at=13, fraction=0.1),
    FaultEvent("amnesia", at=15, fraction=0.1, duration=2),
)

ROUNDS = {
    "full": MaintenanceConfig(sweep_every=2, antientropy_every=1),
    "sampled": MaintenanceConfig(
        sweep_every=2, antientropy_every=1, antientropy_sample=3
    ),
    "none": MaintenanceConfig(sweep_every=2, antientropy_every=None),
}


@pytest.mark.parametrize("rounds", sorted(ROUNDS))
def test_soak_gauge_equals_recount_every_tick(rounds):
    dht, dhs = deployment(SOAK_EVENTS)
    scheduler = dhs.make_scheduler(ROUNDS[rounds])
    joins = rng_for(SEED, "test", "joins")
    traffic = rng_for(SEED, "test", "traffic")
    readings = []
    for now in range(1, 21):
        dht.advance_to(now)
        top_up(dht, joins)
        dhs.insert_bulk(
            "docs", range(now * 40, now * 40 + 40),
            origin=dht.random_live_node(traffic), now=now,
        )
        scheduler.tick(now)
        reading = dhs.replica_divergence(now)
        assert reading == recount(dht, now), f"tick {now}"
        readings.append(reading)
        if now % 2:
            dhs.count("docs", origin=dht.random_live_node(traffic), now=now)
    # A full round re-covers every chain on this ring, so only the
    # sampled and round-less soaks leave something for the gauge to find.
    assert any(readings) == (rounds != "full")


#: The tick the second half's round runs at.
NOW = 6
#: A partition that starts at ``NOW + 1``.
PARTITION_START = FaultEvent("partition", at=NOW + 1, fraction=0.25, duration=2)
#: A partition that began before the warm-up ends and lifts at ``NOW + 1``.
PARTITION_END = FaultEvent("partition", at=NOW - 1, fraction=0.25, duration=2)
#: Amnesiac nodes that return, empty, at ``NOW + 1``.
AMNESIA_REJOIN = FaultEvent("amnesia", at=NOW - 1, fraction=0.25, duration=2)


def warmed(events=()):
    """A deployment that still diverges after a sampled round at ``NOW``."""
    dht, dhs = deployment((FaultEvent("crash", at=NOW - 2, fraction=0.25), *events))
    joins = rng_for(SEED, "test", "joins")
    for now in range(1, NOW + 1):
        dht.advance_to(now)
        top_up(dht, joins)
        dhs.insert_bulk("docs", range(now * 200, now * 200 + 200), now=now)
    dhs.antientropy(NOW, sample=1, rng=rng_for(SEED, "test", "round"))
    return dht, dhs


def _fullest(dht):
    """The responsive node holding the most slots: it is primary for some."""
    return max(dht.responsive_node_ids(), key=lambda n: len(dht.node(n).store))


def _next_to_fullest(dht):
    """The first chain successor of :func:`_fullest`."""
    return dht.successor_id(_fullest(dht))


CHANGES = {
    "insert": lambda dht, dhs: dhs.insert_bulk("docs", range(5000, 5400), now=NOW),
    "count_read_repair": lambda dht, dhs: [
        dhs.count("docs", origin=origin, now=NOW) for origin in list(dht.node_ids())
    ],
    "join": lambda dht, dhs: dht.add_node(_fullest(dht) + 1),
    "graceful_leave": lambda dht, dhs: dht.remove_node(
        _next_to_fullest(dht), graceful=True
    ),
    "crash": lambda dht, dhs: dht.fail_node(_next_to_fullest(dht)),
    "lazy_crash": lambda dht, dhs: dht.mark_failed(_next_to_fullest(dht)),
    "amnesia_rejoin": lambda dht, dhs: dht.advance_to(NOW + 1),
    "partition_start": lambda dht, dhs: dht.advance_to(NOW + 1),
    "partition_end": lambda dht, dhs: dht.advance_to(NOW + 1),
    "sweep": lambda dht, dhs: dhs.sweep_expired(NOW),
}

EVENTS = {
    "amnesia_rejoin": (AMNESIA_REJOIN,),
    "partition_start": (PARTITION_START,),
    "partition_end": (PARTITION_END,),
}


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_change_between_round_and_gauge(change):
    dht, dhs = warmed(EVENTS.get(change, ()))
    before = recount(dht, NOW)
    CHANGES[change](dht, dhs)
    after = recount(dht, NOW)
    assert dhs.replica_divergence(NOW) == after
    if change != "sweep":  # a sweep frees only what is already dead at NOW
        assert after != before, "the change left the recount alone: no teeth"


def test_next_tick_between_round_and_gauge():
    dht, dhs = warmed()
    assert recount(dht, NOW + 1) != recount(dht, NOW)
    assert dhs.replica_divergence(NOW + 1) == recount(dht, NOW + 1)
    assert dhs.replica_divergence(NOW) == recount(dht, NOW)


def test_repeated_gauge_reads_agree():
    dht, dhs = warmed()
    first = dhs.replica_divergence(NOW)
    assert first == recount(dht, NOW)
    assert dhs.replica_divergence(NOW) == first


def test_soak_gauge_reads_the_rounds_view(monkeypatch):
    """Right after its tick's round the gauge builds no view of its own."""
    dht, dhs = warmed()
    scheduler = dhs.make_scheduler(ROUNDS["sampled"])
    dht.advance_to(NOW + 1)
    dhs.insert_bulk("docs", range(9000, 9100), now=NOW + 1)
    scheduler.tick(NOW + 1)
    want = recount(dht, NOW + 1)
    monkeypatch.setattr(maintenance, "ChainView", None)  # a fresh view raises
    assert dhs.replica_divergence(NOW + 1) == want


def _stamp_moves(dht, change):
    before = dht.stamp.value
    change()
    return dht.stamp.value != before


class TestStamp:
    """The change stamp moves at every store, membership and fault-state
    change, and stays put for reads, so a kept view is reused exactly
    when nothing it packed can have changed."""

    def test_store_writes_move_it(self):
        dht, dhs = warmed()
        node = dht.node(_fullest(dht))
        assert _stamp_moves(dht, lambda: write_entry(node, "x", 1, 3, None))
        assert _stamp_moves(dht, lambda: dhs.insert("docs", 77, now=NOW))
        purge_expired(node, NOW)
        assert not _stamp_moves(dht, lambda: purge_expired(node, NOW))  # freed nothing
        assert _stamp_moves(dht, lambda: purge_expired(node, NOW + 4))

    def test_membership_and_liveness_changes_move_it(self):
        dht, _ = warmed()
        assert _stamp_moves(dht, lambda: dht.add_node(_fullest(dht) + 1))
        assert _stamp_moves(dht, lambda: dht.remove_node(_next_to_fullest(dht)))
        assert _stamp_moves(dht, lambda: dht.fail_node(_next_to_fullest(dht)))
        assert _stamp_moves(dht, lambda: dht.mark_failed(_next_to_fullest(dht)))
        assert _stamp_moves(dht, lambda: dht.add_nodes_bulk([_fullest(dht) + 2]))
        assert _stamp_moves(dht, lambda: dht.advance_to(NOW + 1))

    def test_the_amnesia_wipe_moves_it(self):
        ring = ChordRing.build(8, seed=SEED)
        victim = ring.node_ids()[3]
        amnesia = FaultEvent("amnesia", at=1, node_ids=(victim,), duration=2)
        dht = FaultInjector(ring, FaultPlan(events=(amnesia,)), seed=SEED)
        dht.advance_to(1)
        write_entry(dht.node(victim), "x", 1, 3, None)
        assert _stamp_moves(dht, lambda: dht._rejoin(victim))
        assert not dht.node(victim).store

    def test_reads_leave_it(self):
        dht, dhs = warmed()
        while dhs.antientropy(NOW).entries_written:
            pass  # full rounds until one writes nothing
        dhs.sweep_expired(NOW)
        stamp = dht.stamp.value
        assert dhs.antientropy(NOW).entries_written == 0
        dhs.replica_divergence(NOW)
        dhs.sweep_expired(NOW)
        dht.node_responsive(_fullest(dht))
        assert dht.stamp.value == stamp
