"""Anti-entropy rounds through the facade, tick after tick, against the oracle.

Whatever the facade carries from one round to the next, every round it
runs must be the round ``tests/overlay/antientropy_oracle.py`` runs
afresh on the same deployment.  Two copies of a small faulty, TTL'd,
replicated deployment are built and driven through the same ticks:
fault-clock steps, joiners that top the ring back up, inserts, sweeps
and read-repairing counts between rounds.  One copy's rounds come from
its scheduler, the other's from the oracle.  After every tick every
``AntiEntropyStats`` field, every store (key order, masks, expiries in
insertion order) and every ``dht.load`` count must be equal, and so
must the facade's divergence gauge and the oracle's recount.

The soaks run full and sampled rounds at replication 1 and 2, and
check that they reach what they claim to cover: a round that writes
nothing, a tick where only TTL expiry changes the chains, a homecoming
write to the initiator, and crash, join and partition ticks.  Two
named cases pin what a soak rarely meets: a pair whose only changed
input is an initiator's predecessor (its TTL'd copy expires, and the
initiator becomes primary for a bit its successor lacks), and a pair
converged in the last round that a homecoming write earlier in this
round makes due again.
"""

import pytest

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.core.maintenance import MaintenanceConfig
from repro.core.policy import RetryPolicy
from repro.core.tuples import vectors_mask, write_entry
from repro.overlay.chord import ChordRing
from repro.overlay.faults import FaultEvent, FaultInjector, FaultPlan
from repro.sim.seeds import rng_for
from tests.overlay import antientropy_oracle as oracle

SEED = 5
N_NODES = 16
TICKS = 40
POLICY = RetryPolicy(max_attempts=3, backoff_hops=1)
#: Ticks with no insert: only the clock (and what it expires) moves.
QUIET_EVERY = 7
#: Fault ticks, none of them quiet.
EVENTS = (
    FaultEvent("crash", at=3, fraction=0.15),
    FaultEvent("partition", at=8, fraction=0.2, duration=3),
    FaultEvent("amnesia", at=13, fraction=0.15, duration=3),
    FaultEvent("lazy_crash", at=19, fraction=0.1),
    FaultEvent("transient", at=24, fraction=0.1, duration=2),
    FaultEvent("crash", at=30, fraction=0.1),
)


def snapshot(dht):
    """Every store, key order included, and every load count."""
    stores = {}
    for node_id in dht.node_ids():
        stores[int(node_id)] = [
            (key, slot.mask, list((slot.expiring or {}).items()))
            if hasattr(slot, "mask")
            else (key, slot)
            for key, slot in dht.node(node_id).store.items()
        ]
    return stores, dht.load.counts()


def oracle_geometry(dhs):
    """The callables the oracle round takes, for ``dhs``'s mapping and arena."""
    mapping, dht = dhs.mapping, dhs.dht

    def visible(bit, node_id):
        if not mapping.is_stored(bit):
            return True
        return node_id in dht.interval_reach(*mapping.interval_for_position(bit))

    def segment_of(bit):
        return mapping.interval_index(bit) if mapping.is_stored(bit) else -1

    def write_fn(node, metric, vector, bit, expiry):
        write_entry(node, metric, vector, bit, expiry, arena=dhs.arena)

    return dict(
        visible=visible, segment_of=segment_of, write_fn=write_fn,
        model=dhs.config.size_model,
    )


class Twins:
    """The same deployment twice: scheduler rounds on one, oracle rounds
    on the other, compared after every round."""

    def __init__(self, build, replication, maintenance):
        self.replication = replication
        self.maintenance = maintenance
        self.fast, self.slow = build(), build()
        self.scheduler = self.fast[1].make_scheduler(maintenance)
        #: What the rounds did, for the coverage checks.
        self.seen = {"quiet rounds": 0, "homecomings": 0, "writing rounds": 0}

    def both(self, op):
        """Apply ``op(dht, dhs)`` to each side; returns both results."""
        return op(*self.fast), op(*self.slow)

    def tick(self, now):
        """One scheduler tick on the fast side, its oracle mirror on the other."""
        fast_dht, fast_dhs = self.fast
        slow_dht, slow_dhs = self.slow
        report = self.scheduler.tick(now)
        config = self.maintenance
        if config.sweep_every and now % config.sweep_every == 0:
            assert slow_dhs.sweep_expired(now) == report.swept
        sample = config.antientropy_sample or None
        log = []
        want = oracle.antientropy_round(
            slow_dht, self.replication, now,
            rng=rng_for(SEED, "antientropy", now) if sample else None,
            sample=sample, log=log, **oracle_geometry(slow_dhs),
        )
        assert report.antientropy == want, f"tick {now}: round stats"
        assert snapshot(fast_dht) == snapshot(slow_dht), f"tick {now}: stores or load"
        assert fast_dhs.replica_divergence(now) == oracle.replica_divergence(
            slow_dht, self.replication, now
        ), f"tick {now}: gauge"
        self._tally(want, log)

    def _tally(self, stats, log):
        dht = self.slow[0]
        if stats.pairs and not stats.entries_written:
            self.seen["quiet rounds"] += 1
        if stats.entries_written:
            self.seen["writing rounds"] += 1
        for src, dst in log:
            # A homecoming runs from a chain successor back to its initiator.
            if src in oracle.ring_walk(dht, dst, self.replication, +1, True):
                self.seen["homecomings"] += 1


def soak_deployment(replication):
    def build():
        ring = ChordRing.build(N_NODES, seed=SEED)
        dht = FaultInjector(ring, FaultPlan(events=EVENTS), seed=SEED)
        dhs = DistributedHashSketch(
            dht,
            DHSConfig(
                key_bits=10, num_bitmaps=16, replication=replication,
                read_repair=True, ttl=4,
            ),
            seed=SEED, policy=POLICY,
        )
        dht.side_rngs = (rng_for(SEED, "test", "joins"), rng_for(SEED, "test", "traffic"))
        return dht, dhs

    return build


def top_up(dht, dhs):
    """Empty joiners replace crashed and evicted nodes."""
    joins = dht.side_rngs[0]
    joined = 0
    while len(dht.node_ids()) < N_NODES:
        joiner = joins.randrange(dht.space.size)
        if not dht.has_node(joiner):
            dht.add_node(joiner)
            joined += 1
    return joined


def live_entries(dht, now):
    """Live entries over the responsive nodes at ``now``."""
    return sum(
        len(oracle.live_vectors(slot, now))
        for node_id in dht.responsive_node_ids()
        for slot in dht.node(node_id).store.values()
    )


def responsive(dht, dhs):
    return dht.responsive_node_ids()


ROUNDS = {
    "full": MaintenanceConfig(sweep_every=3, antientropy_every=1),
    "sampled": MaintenanceConfig(
        sweep_every=3, antientropy_every=1, antientropy_sample=5
    ),
}


@pytest.mark.parametrize("replication", [1, 2])
@pytest.mark.parametrize("rounds", sorted(ROUNDS))
def test_scheduler_rounds_equal_fresh_oracle_rounds(rounds, replication):
    twins = Twins(soak_deployment(replication), replication, ROUNDS[rounds])
    joined = expiry_only = 0
    for now in range(1, TICKS + 1):
        before, _ = twins.both(responsive)
        twins.both(lambda dht, dhs: dht.advance_to(now))
        joins, _ = twins.both(top_up)
        joined += joins
        quiet = now % QUIET_EVERY == 0
        if not quiet:
            twins.both(
                lambda dht, dhs: dhs.insert_bulk(
                    "docs", range(now * 30, now * 30 + 30),
                    origin=dht.random_live_node(dht.side_rngs[1]), now=now,
                )
            )
        elif twins.both(responsive)[0] == before:
            # Same chain members, no insert: any change is the clock's.
            slow_dht = twins.slow[0]
            expiry_only += live_entries(slow_dht, now) != live_entries(slow_dht, now - 1)
        twins.tick(now)
        if now % 2:  # a read-repairing count between this round and the next
            fast, slow = twins.both(
                lambda dht, dhs: dhs.count(
                    "docs", origin=dht.random_live_node(dht.side_rngs[1]), now=now
                )
            )
            assert fast.estimate() == slow.estimate()
            assert fast.cost.repair_writes == slow.cost.repair_writes
    seen = twins.seen
    assert seen["quiet rounds"] and seen["writing rounds"], seen
    assert seen["homecomings"], seen
    assert joined and expiry_only, (joined, expiry_only)


#: Chord ids of the named case: ``W -> X -> L -> S`` around a 16-bit ring.
W, X, L, S = 1000, 2000, 3000, 4000


def predecessor_expiry():
    """``X`` and ``L`` hold one bit, ``X``'s copy expiring first; ``S`` lacks it.

    At replication 1, ``X`` is ``L``'s only chain predecessor, so ``L``
    is primary for nothing until ``X``'s copy expires.  Position 0 is
    never stored, so every node sees it and no homecoming runs.
    """
    ring = ChordRing.from_ids([W, X, L, S], bits=16)
    dhs = DistributedHashSketch(
        ring, DHSConfig(key_bits=8, num_bitmaps=4, bit_shift=1, replication=1), seed=1
    )
    write_entry(ring.node(X), "m", 1, 0, 2)
    write_entry(ring.node(L), "m", 1, 0, 10)
    return ring, dhs


def test_a_predecessor_copy_expiring_makes_the_initiator_primary():
    twins = Twins(predecessor_expiry, 1, MaintenanceConfig(antientropy_every=1))
    for now in (1, 2, 3):
        twins.tick(now)
    fast_dht = twins.fast[0]
    assert fast_dht.node(S).store[("m", 0)].expiring == {1: 10.0}
    assert twins.seen["writing rounds"] == 1  # tick 3's push from L to S


def homecoming_after_quiet_round():
    """The differential suite's homecoming geometry, with empty stores.

    ``30000`` is the only node of bit 2's interval ``[16384, 32768)``
    and the corpse at ``33000`` is the walk's one overflow step, so the
    walk cannot see ``40000``.
    """
    ring = ChordRing.from_ids([10, 30000, 33000, 40000, 50000], bits=16)
    ring.mark_failed(33000)
    dhs = DistributedHashSketch(
        ring, DHSConfig(key_bits=8, num_bitmaps=4, bit_shift=1, replication=2), seed=1
    )
    return ring, dhs


def test_a_homecoming_write_reaches_a_pair_that_was_converged():
    """Pair ``(30000, 50000)`` is converged after tick 1 and nothing it
    reads changes before tick 2's round, until that round's pair
    ``(30000, 40000)`` brings a bit home to ``30000``: it must then push
    the bit on to ``50000`` in the same round."""
    twins = Twins(homecoming_after_quiet_round, 2, MaintenanceConfig(antientropy_every=1))
    twins.tick(1)
    twins.both(lambda dht, dhs: write_entry(dht.node(40000), "m", 3, 2, None))
    twins.tick(2)
    fast_dht = twins.fast[0]
    assert vectors_mask(fast_dht.node(30000), "m", 2, 2) == 0b1000
    assert vectors_mask(fast_dht.node(50000), "m", 2, 2) == 0b1000
