"""Golden digests of the storage a deployment reports through mutations.

One TTL'd, R=2 deployment behind a :class:`FaultInjector` goes through
the store mutations that change a node's entry count outside a plain
write: inserts at different ticks, graceful leaves (the heir merges the
leaver's store), an amnesia crash and rejoin (the store is wiped),
expiry sweeps and anti-entropy rounds.  After every step the test
digests :meth:`storage_per_node` and :meth:`storage_bytes_per_node`, so
the entry count that storage-load experiments report is pinned step by
step, on both store backends.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.overlay.chord import ChordRing
from repro.overlay.faults import FaultEvent, FaultInjector, FaultPlan

GOLDEN = [
    ("insert docs t=0",
     "7b4ec6f6082060254239e5391eb0863d8c0d4c577c87b7dcc7a6e45e65acc2ad"),
    ("insert tags t=1",
     "56d821beb5e8c561515533000999610d75e05e483b7f7086b336e9c66cefcf01"),
    ("graceful leaves",
     "52efc49fcecb1ea9835151b80acf0ec6564bce77e7062d385f5fe307faf6fc07"),
    ("amnesia t=2",
     "52efc49fcecb1ea9835151b80acf0ec6564bce77e7062d385f5fe307faf6fc07"),
    ("rejoin t=4",
     "f8d39e31e3006c9e8f7bcc42533657abd072b0ef81601d8c446b9e87326fa9bd"),
    ("refresh docs t=4",
     "7f88b4def2f001cdf8607620d124329b6f28c0411a8f617ecded588ae8ce89a5"),
    ("antientropy t=4",
     "dde80babd88790ac542cc502602f7dc4e4c7357b50e90ae5b436661b1714b12c"),
    ("sweep t=7",
     "1dc9ed9ef64d71620898e98504f1ad85701a7e70beb31673731fbef90f6f128a"),
    ("antientropy t=7",
     "598bcf517389ed41a5ac3ea28c64077ac7b6fcb81ee66f21fd96d19b994d5ba6"),
    ("sweep t=11",
     "06e236df6e506f6a489d99b249877be60006cc1d727120b1c28315e50a38e824"),
]


def _storage_steps(store):
    ring = ChordRing.build(40, bits=32, seed=17)
    plan = FaultPlan(
        events=(FaultEvent("amnesia", at=2, fraction=0.2, duration=2),)
    )
    dht = FaultInjector(ring, plan, seed=3)
    config = DHSConfig(
        key_bits=12, num_bitmaps=16, replication=2, read_repair=True,
        ttl=6, store=store,
    )
    dhs = DistributedHashSketch(dht, config, seed=4)
    steps = []

    def snapshot(label):
        digest = hashlib.sha256(repr((
            sorted(dhs.storage_per_node().items()),
            sorted(dhs.storage_bytes_per_node().items()),
        )).encode())
        steps.append((label, digest.hexdigest()))

    docs = np.arange(3_000, dtype=np.int64)
    dhs.insert_array("docs", docs, now=0)
    snapshot("insert docs t=0")
    dhs.insert_bulk("tags", range(500, 1_700), now=1)
    snapshot("insert tags t=1")
    node_ids = list(dht.node_ids())
    for node_id in node_ids[3::9]:
        dht.remove_node(node_id, graceful=True)
    snapshot("graceful leaves")
    dht.advance_to(2)
    snapshot("amnesia t=2")
    dht.advance_to(4)
    snapshot("rejoin t=4")
    dhs.refresh("docs", docs[:1_500], now=4)
    snapshot("refresh docs t=4")
    dhs.antientropy(4)
    snapshot("antientropy t=4")
    dht.advance_to(7)
    dhs.sweep_expired(7)
    snapshot("sweep t=7")
    dhs.antientropy(7)
    snapshot("antientropy t=7")
    dht.advance_to(11)
    dhs.sweep_expired(11)
    snapshot("sweep t=11")
    return steps


@pytest.mark.parametrize("store", ["array", "packed"])
def test_reported_storage_matches_golden_after_every_step(store):
    assert _storage_steps(store) == GOLDEN
