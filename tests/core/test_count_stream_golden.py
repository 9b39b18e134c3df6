"""Golden digests of whole count streams on every overlay.

Each case builds one fixed deployment, runs 200 counts from a rotating
set of querying nodes (every fourth from a node the counter draws
itself) and digests everything a count reports or charges: estimates,
confidence, every :class:`~repro.overlay.stats.OpCost` field, the probe
tallies, the sorted probed ids, the interval tallies and, at the end,
the overlay's whole per-node access map.  Any change to how probe keys
are drawn, how a route is replayed or charged, or how a probe walk
spends its budget moves a digest.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.overlay.chord import ChordRing
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.pastry import PastryOverlay

OVERLAYS = {
    "chord": lambda: ChordRing.build(256, bits=32, seed=11),
    "chord-traced": lambda: ChordRing.build(256, bits=32, seed=11, trace=True),
    "kademlia": lambda: KademliaOverlay.build(256, bits=32, seed=11),
    "pastry": lambda: PastryOverlay.build(256, bits=32, seed=11),
}

GOLDEN = {
    ("chord", "sll"):
        "d7556547e0f21446fb7c8c0d86334e9eaa60a15f3e75041ade06e3613902cd3c",
    ("chord", "pcsa"):
        "f9fb55a765e0ca6594dc85d33b3cb1c42c99c3a34068ea04f88f7da9fdae344b",
    ("chord-traced", "sll"):
        "6f6e993fd78cf327bd94e60cb2fcbbdce209ea726a48fdc23f5495b31284d4e9",
    ("kademlia", "sll"):
        "5aeced381c061306daa05797fe25907e86e9c5a1a41125219f809460ffe7736e",
    ("kademlia", "pcsa"):
        "71e8d14863b9cd265db462e1290b1b436e6bfcc03e7e701d260b5789b92aa7b5",
    ("pastry", "sll"):
        "2c3b312ad592140701591eb31a62ca7bab33e2a5c1bc4d31796408267e1b4354",
    ("pastry", "pcsa"):
        "032053380e04fba02844fc406fade05842a193f6702648b9ed98e7dd721f69b0",
}


def _count_stream_digest(overlay: str, estimator: str) -> str:
    dht = OVERLAYS[overlay]()
    config = DHSConfig(key_bits=20, num_bitmaps=16, lim=5, estimator=estimator)
    dhs = DistributedHashSketch(dht, config, seed=2)
    items = np.arange(40_000, dtype=np.int64)
    node_ids = list(dht.node_ids())
    for start in range(0, len(items), 4_000):
        dhs.insert_array("docs", items[start:start + 4_000], origin=node_ids[start % 97])
    origins = node_ids[::23]
    digest = hashlib.sha256()
    for i in range(200):
        origin = None if i % 4 == 3 else origins[i % len(origins)]
        result = dhs.count("docs", origin=origin, now=i)
        cost = result.cost
        digest.update(repr((
            sorted(result.estimates.items()),
            sorted(result.confidence.items()),
            cost.hops, cost.bytes, cost.messages, cost.nodes_visited,
            cost.lookups, cost.timeouts, cost.retries, cost.drops,
            cost.repair_writes,
            result.probes, sorted(result.probed_ids),
            result.intervals_scanned, result.exhausted_intervals,
        )).encode())
    digest.update(repr(sorted(dht.load.counts().items())).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("overlay, estimator", sorted(GOLDEN))
def test_count_stream_matches_golden(overlay, estimator):
    assert _count_stream_digest(overlay, estimator) == GOLDEN[overlay, estimator]
