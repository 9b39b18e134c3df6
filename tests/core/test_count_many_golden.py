"""Golden digests of whole multi-metric count streams.

Each case builds one fixed deployment, runs a stream of ``count_many``
calls and digests everything a count reports or charges: estimates and
confidence in their dict order, every :class:`~repro.overlay.stats.OpCost`
field, the probe tallies, the sorted probed ids, the interval tallies,
the degraded flag and, at the end, the overlay's whole per-node access
map (plus, for the read-repair case, every store the repairs wrote to).
Any change to which slots a probe reads, what it charges for them or
how a multi-metric walk decides it is done moves a digest.

The cases: 50 histogram reconstructions (100 buckets, m=128) per
overlay and estimator; a 130-metric request in shuffled order, a
5-metric subset of it and a request naming a metric never inserted,
interleaved on one deployment; a TTL'd, replicated, read-repairing
deployment behind a fault injector, counted at and just past an
expiry; a bit shift; a 96-bit id space.
"""

import hashlib
import random
from dataclasses import fields

import numpy as np
import pytest

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.histograms.buckets import BucketSpec
from repro.histograms.builder import DHSHistogramBuilder
from repro.overlay.chord import ChordRing
from repro.overlay.faults import FaultEvent, FaultInjector, FaultPlan
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.pastry import PastryOverlay
from repro.overlay.stats import OpCost

OVERLAYS = {
    "chord": lambda: ChordRing.build(64, bits=32, seed=11),
    "kademlia": lambda: KademliaOverlay.build(64, bits=32, seed=11),
    "pastry": lambda: PastryOverlay.build(64, bits=32, seed=11),
}

GOLDEN = {
    ("hist", "chord", "sll"):
        "e9fbe11361654fc0ea17bf6a7713578b48ee13e3bf7f406305e9c44dc5c3b232",
    ("hist", "chord", "pcsa"):
        "83d69719d8689e2d772d9306e6618c814afb0f9d5141d90ee4d2140973378bc3",
    ("hist", "kademlia", "sll"):
        "0e0fdd4eb11827dff67457e2643630350e4d185c6effe785e8326785e530ae70",
    ("hist", "kademlia", "pcsa"):
        "be332d6546f0649ca0a9beb363f7fb9e9a45f9ab408a61e6f5fab08f11f9ca17",
    ("hist", "pastry", "sll"):
        "cc4ed59a2ef6a3f6a0032fc0d9eef0c4c2d9746090dce5f19fae56ba09d215bb",
    ("hist", "pastry", "pcsa"):
        "f88a69489c5684b8f085443c1300968001e0b1e3eba455c4c275ebc49de7ec1d",
    ("blocks", "chord", "sll"):
        "3c2d7ba14d7be2934ee5db39eb4848059b3eb2b6bb368237e29532addfa62a8d",
    ("blocks", "chord", "pcsa"):
        "35287fc50650b0a0c04f63eb75dac0112aeeb5fc0b172e3c58140c310e803535",
    ("repair", "chord", "sll"):
        "410b1fa8387d81b26a1e1dbc2ff48fa7ea0b169f45ae3cc5751bd4be2a487f64",
    ("repair", "chord", "pcsa"):
        "d6692e735d5a2c1f9b1a2297846ac1f2890afcf2492a7a83c67e1724aa2d46dc",
    ("shift", "chord", "sll"):
        "86111a1dfe25d158c7b03ba8d055089b8660c31b774f4b66a7999c9887b93b8f",
    ("shift", "chord", "pcsa"):
        "2b30c7a49fc538f2386b20093507750ff8cbef2633a6346bb3cc43119953a60e",
    ("wide", "chord", "sll"):
        "e5b54803453cf8ede99a29364ee6e3ee4cac72b4a372818ad6ad01d269e95db7",
    ("wide", "chord", "pcsa"):
        "54b98836708da5308af49833f27faa7cef0bb80625cfeae6e52bc55b010d6aa5",
}


def _digest_result(digest, result):
    cost = result.cost
    digest.update(repr((
        list(result.estimates.items()),
        list(result.confidence.items()),
        [getattr(cost, f.name) for f in fields(OpCost)],
        result.probes, sorted(result.probed_ids),
        result.intervals_scanned, result.exhausted_intervals, result.degraded,
    )).encode())


def _digest_stores(digest, dht):
    for node_id in sorted(dht.node_ids()):
        store = dht.node(node_id).store
        digest.update(repr((node_id, [
            (key, slot.mask, sorted((slot.expiring or {}).items()))
            for key, slot in store.items()
        ])).encode())


def _populate(dhs, metrics, now=0):
    """Insert a metric-dependent number of items under every metric."""
    node_ids = list(dhs.dht.node_ids())
    base = 0
    for i, metric in enumerate(metrics):
        size = 40 + (i * 397) % 1_500
        dhs.insert_array(
            metric, np.arange(base, base + size, dtype=np.int64),
            origin=node_ids[i % len(node_ids)], now=now,
        )
        base += size


def _hist_stream(overlay, estimator):
    dht = OVERLAYS[overlay]()
    config = DHSConfig(key_bits=20, num_bitmaps=128, lim=5, estimator=estimator)
    dhs = DistributedHashSketch(dht, config, seed=3)
    builder = DHSHistogramBuilder(dhs, BucketSpec.equi_width(0.0, 100.0, 100), "R")
    _populate(dhs, builder.all_metrics())
    origins = list(dht.node_ids())[::5]
    digest = hashlib.sha256()
    for i in range(50):
        origin = None if i % 5 == 4 else origins[i % len(origins)]
        _digest_result(digest, builder.reconstruct(origin=origin).count_result)
    return digest, dht


def _blocks_stream(estimator):
    dht = ChordRing.build(64, bits=32, seed=12)
    config = DHSConfig(key_bits=20, num_bitmaps=16, lim=5, estimator=estimator)
    dhs = DistributedHashSketch(dht, config, seed=4)
    metrics = [("t", i) for i in range(130)]
    _populate(dhs, metrics)
    shuffled = list(metrics)
    random.Random(5).shuffle(shuffled)
    requests = [
        shuffled[40:45],                    # asked first: its blocks grow later
        shuffled,                           # three blocks of the metric table
        shuffled[:7] + [("never", 0)] + shuffled[100:103],
    ]
    digest = hashlib.sha256()
    for i in range(30):
        _digest_result(digest, dhs.count_many(requests[i % 3], now=i))
    return digest, dht


def _repair_stream(estimator):
    ring = ChordRing.build(48, bits=32, seed=13)
    plan = FaultPlan(events=(
        FaultEvent("amnesia", at=2, fraction=0.3, duration=2),
        FaultEvent("transient", at=3, fraction=0.2, duration=2),
    ))
    dht = FaultInjector(ring, plan, seed=6)
    config = DHSConfig(
        key_bits=16, num_bitmaps=16, lim=4, estimator=estimator,
        replication=2, read_repair=True, ttl=6,
    )
    dhs = DistributedHashSketch(dht, config, seed=5)
    metrics = [("ttl", i) for i in range(70)]
    for now in range(4):
        dht.advance_to(now)
        _populate(dhs, metrics[now::2], now=now)
    digest = hashlib.sha256()
    # The amnesia victims are down at tick 3 and back, empty, at 4; the
    # transient ones are silent through ticks 3 and 4.
    # Entries written at tick t expire at t + 6: count at 6 == expiry of
    # tick 0's batch and at 7 just past it, then at and past tick 3's.
    for i, now in enumerate((3, 4, 6, 7, 7, 9, 10)):
        dht.advance_to(now)
        request = metrics if i % 2 == 0 else metrics[::-3]
        _digest_result(digest, dhs.count_many(request, now=now))
    _digest_stores(digest, dht)
    return digest, dht


def _shift_stream(estimator):
    dht = ChordRing.build(64, bits=32, seed=14)
    config = DHSConfig(
        key_bits=20, num_bitmaps=32, lim=5, estimator=estimator, bit_shift=3
    )
    dhs = DistributedHashSketch(dht, config, seed=6)
    metrics = [("s", i) for i in range(70)]
    _populate(dhs, metrics)
    digest = hashlib.sha256()
    for i in range(10):
        _digest_result(digest, dhs.count_many(metrics[i % 3:], now=i))
    return digest, dht


def _wide_stream(estimator):
    dht = ChordRing.build(64, bits=96, seed=15)
    config = DHSConfig(key_bits=32, num_bitmaps=32, lim=5, estimator=estimator)
    dhs = DistributedHashSketch(dht, config, seed=7)
    metrics = [("w", i) for i in range(70)]
    _populate(dhs, metrics)
    digest = hashlib.sha256()
    for i in range(10):
        _digest_result(digest, dhs.count_many(metrics[::-1], now=i))
    return digest, dht


def _stream_digest(case, overlay, estimator):
    if case == "hist":
        digest, dht = _hist_stream(overlay, estimator)
    else:
        stream = {
            "blocks": _blocks_stream,
            "repair": _repair_stream,
            "shift": _shift_stream,
            "wide": _wide_stream,
        }[case]
        digest, dht = stream(estimator)
    digest.update(repr(sorted(dht.load.counts().items())).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("case, overlay, estimator", sorted(GOLDEN))
def test_count_many_stream_matches_golden(case, overlay, estimator):
    assert _stream_digest(case, overlay, estimator) == GOLDEN[case, overlay, estimator]
