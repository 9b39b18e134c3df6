"""Golden digests of per-item insert streams under churn.

Each case builds one fixed deployment and writes 2,000 items one
``insert`` at a time, each from a seeded random live origin, with a
graceful leave plus a join every 50 inserts.  The digest takes every
insert's whole :class:`~repro.overlay.stats.OpCost`, every node's slots
at the end, and the overlay's per-node access map in first-seen order,
so any change to how a write is routed, charged, retried or costed, or
to the order in which its nodes are first charged, moves a digest.

The cases cover the untraced and traced Chord route (memo hits
included), lazily failed nodes with no fault layer (the timeout, evict
and re-resolve branches), a fault layer with transient outages, message
drops and a retrying policy (the vetoed evictions and the loss cost),
replicas, a TTL, the MD4 family, and the shared ``DHTProtocol._route``
under Kademlia and Pastry.

The pickle tests hold the slotted per-op result types to what
``DHS_JOBS`` worker processes need: they round-trip through ``pickle``
(``tests/core/test_count_planes.py`` pickles a whole ``CountResult``).
"""

import hashlib
import pickle

import pytest

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.core.policy import RetryPolicy
from repro.overlay.chord import ChordRing
from repro.overlay.dht import LookupResult
from repro.overlay.faults import FaultEvent, FaultInjector, FaultPlan
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.pastry import PastryOverlay
from repro.overlay.stats import OpCost
from repro.sim.seeds import rng_for

INSERTS = 2_000
CHURN_EVERY = 50

CASES = {
    "chord": dict(),
    "chord-traced": dict(trace=True),
    "chord-lazy-failures": dict(lazy_fail_every=70),
    "chord-faults": dict(faults=True, replication=2),
    "chord-md4-ttl": dict(hash_family_name="md4", ttl=40),
    "kademlia": dict(overlay=KademliaOverlay),
    "pastry": dict(overlay=PastryOverlay, replication=1),
}

GOLDEN = {
    "chord":
        "b7ad393c685515a7e0418777456dc2988a1c234dff1ec52f1d203ba5dd2d8c4a",
    "chord-traced":
        "745dd644b24d207f457459dd124cdf217f04e67180ec8c31acce3e7faef436a1",
    "chord-lazy-failures":
        "5135cbc55c6aed58abf0590d58f39446fd3495ee4c3b7f77b54ab4a1dfce0c02",
    "chord-faults":
        "759991e2e615609e50c14594b41b733a3ed30e7893387f6e460b6040e899514d",
    "chord-md4-ttl":
        "d6e7d4c565f49dbe2dafa7d64c794ed54ea35f9ef02ce20290c541b51c38222b",
    "kademlia":
        "ce25d866341fc65fa47ee0e0195e6dfc14c49a3d9713089237928251dc1ce5fd",
    "pastry":
        "e39b2301e01c78560d771fcb8402b0f96cc8bf7a97d1b463f7874d6cbf98704d",
}


def _fault_plan():
    return FaultPlan(
        drop_probability=0.1,
        events=tuple(
            FaultEvent("transient", at=at, fraction=0.05, duration=15)
            for at in range(5, INSERTS // 10, 30)
        ),
    )


def _insert_stream_digest(
    overlay=ChordRing,
    trace=False,
    lazy_fail_every=0,
    faults=False,
    **config,
):
    ring = overlay.build(128, bits=32, seed=7)
    ring.trace = trace
    dht = FaultInjector(ring, _fault_plan(), seed=3) if faults else ring
    policy = RetryPolicy(max_attempts=2, backoff_hops=1, jitter_hops=2)
    dhs = DistributedHashSketch(
        dht,
        DHSConfig(key_bits=24, num_bitmaps=16, bit_shift=1, **config),
        seed=5,
        policy=policy if faults else RetryPolicy(),
    )
    rng = rng_for(9, "insert-stream")
    digest = hashlib.sha256()
    total = OpCost()
    for i in range(INSERTS):
        if i and i % CHURN_EVERY == 0:
            dht.remove_node(dht.random_live_node(rng), graceful=True)
            joiner = rng.randrange(dht.space.size)
            while dht.has_node(joiner):
                joiner = rng.randrange(dht.space.size)
            dht.add_node(joiner)
        if lazy_fail_every and i % lazy_fail_every == lazy_fail_every - 1:
            dht.mark_failed(dht.random_live_node(rng))
        if faults:
            dht.advance_to(i // 10)
        item = f"item-{i}" if i % 3 == 0 else i
        cost = dhs.insert("docs", item, origin=dht.random_live_node(rng), now=i // 10)
        total.add(cost)
        digest.update(repr((
            cost.hops, cost.messages, cost.bytes, cost.lookups, cost.timeouts,
            cost.retries, cost.drops, cost.repair_writes, cost.nodes_visited,
        )).encode())
    for node_id in dht.node_ids():
        node = dht.node_if_materialized(node_id)
        if node is None:
            continue
        for key, slot in node.store.items():
            digest.update(repr((
                node_id, node.alive, key, slot.mask,
                list((slot.expiring or {}).items()),
            )).encode())
    digest.update(repr(list(dht.load.counts().items())).encode())
    return digest.hexdigest(), total


@pytest.mark.parametrize("case", sorted(CASES))
def test_insert_stream_matches_golden(case):
    digest, total = _insert_stream_digest(**CASES[case])
    assert digest == GOLDEN[case]
    # Each case reaches the branches it is there for.
    assert total.lookups and total.hops
    assert bool(total.nodes_visited) == CASES[case].get("trace", False)
    if "lazy_fail_every" in CASES[case]:
        assert total.timeouts and not total.retries
    if "faults" in CASES[case]:
        assert total.timeouts and total.retries and total.drops


def test_cost_types_round_trip_through_pickle():
    cost = OpCost(hops=3, bytes=24.0, messages=3, nodes_visited=[1, 2], lookups=1)
    assert pickle.loads(pickle.dumps(cost)) == cost
    lookup = LookupResult(node_id=7, cost=cost)
    clone = pickle.loads(pickle.dumps(lookup))
    assert clone == lookup and clone.cost == cost


def test_cost_types_are_slotted():
    assert not hasattr(OpCost(), "__dict__")
    assert not hasattr(LookupResult(node_id=1, cost=OpCost()), "__dict__")

