"""Read rows stay equal to the slots through every kind of store mutation.

One TTL'd, replicated, read-repairing deployment behind a fault
injector goes through a short life: single inserts, array inserts,
multi-metric counts, a TTL sweep, an anti-entropy round, a graceful
leave, a crash with an amnesia rejoin, and the read repair that follows.
After every step each row a probe cached anywhere must equal a rebuild
from the node's slots (``tests/core/read_rows_oracle.py``), and every
row is rebuilt, so a mutation site that forgets to drop a node's rows
fails the next check.
"""

import numpy as np
import pytest

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.core.tuples import write_entry
from repro.overlay.chord import ChordRing
from repro.overlay.faults import FaultEvent, FaultInjector, FaultPlan
from tests.core.read_rows_oracle import assert_rows_match_slots

#: 70 metrics: two blocks of the metric table.
METRICS = [("r", i) for i in range(70)]


def deployment():
    ring = ChordRing.build(24, bits=16, seed=5)
    plan = FaultPlan(events=(FaultEvent("amnesia", at=20, fraction=0.3, duration=2),))
    dht = FaultInjector(ring, plan, seed=5)
    config = DHSConfig(
        key_bits=10, num_bitmaps=8, lim=4, replication=2, read_repair=True, ttl=6,
    )
    return dht, DistributedHashSketch(dht, config, seed=3)


def test_rows_follow_every_store_mutation():
    dht, dhs = deployment()
    counter = dhs._counter
    dhs.count_many(METRICS, now=0)
    checked = []

    def step(now):
        checked.append(assert_rows_match_slots(counter, dht, now))

    step(0)
    for i in range(40):
        dhs.insert(METRICS[i % len(METRICS)], i, now=0)
    step(0)
    for i, metric in enumerate(METRICS):
        dhs.insert_array(metric, np.arange(i * 50, i * 50 + 40 + i, dtype=np.int64), now=1)
    step(1)
    dhs.count_many(METRICS[::-1], now=2)
    step(2)
    dhs.insert_array(METRICS[0], np.arange(9_000, 9_300, dtype=np.int64), now=5)
    step(5)
    # Tick 0's and 1's entries expire after ticks 6 and 7.
    assert dhs.sweep_expired(9) > 0
    step(9)
    assert dhs.antientropy(9).entries_written > 0
    step(9)
    # A leaver holding a bit its heir lacks: the merge changes the heir.
    leaver = dht.node_ids()[7]
    write_entry(dht.node(leaver), METRICS[3], 5, 2, None)
    step(9)
    dht.remove_node(leaver, graceful=True)
    step(9)
    dhs.count_many(METRICS, now=10)
    step(10)
    for i, metric in enumerate(METRICS):
        dhs.insert_array(metric, np.arange(i * 70, i * 70 + 60, dtype=np.int64), now=18)
    step(18)
    dht.advance_to(20)   # the amnesia victims crash...
    step(20)
    dht.advance_to(22)   # ...and rejoin empty
    step(22)
    assert dhs.count_many(METRICS, now=22).cost.repair_writes > 0
    step(22)
    # Rows survive the steps that leave their node's store alone.
    assert sum(checked) > 0


def test_a_mutation_that_keeps_its_rows_is_caught():
    """The check is not vacuous: a slot changed behind the rows' back fails it."""
    dht, dhs = deployment()
    dhs.insert_array(METRICS[0], np.arange(500, dtype=np.int64), now=0)
    counter = dhs._counter
    dhs.count_many(METRICS[:2], now=0)
    assert_rows_match_slots(counter, dht, 0)
    node = dht.node(dht.node_ids()[0])
    rows = node.read_rows
    write_entry(node, METRICS[1], 7, 0, None)
    node.read_rows = rows
    with pytest.raises(AssertionError, match="stale"):
        assert_rows_match_slots(counter, dht, 0)


def test_a_grown_block_rebuilds_its_rows():
    """Rows cached while a block had one member are rebuilt once it has three."""
    dht, dhs = deployment()
    for i, metric in enumerate(METRICS[:3]):
        dhs.insert_array(metric, np.arange(i * 1000, i * 1000 + 400, dtype=np.int64))
    _, twin = deployment()
    for i, metric in enumerate(METRICS[:3]):
        twin.insert_array(metric, np.arange(i * 1000, i * 1000 + 400, dtype=np.int64))
    dhs.count(METRICS[0])          # rows of one member...
    twin.count(METRICS[0])
    grown = dhs.count_many(METRICS[:3])   # ...then the block holds three
    # The twin's rows are all dropped: it rebuilds every one from the slots.
    for node_id in twin.dht.node_ids():
        twin.dht.node(node_id).read_rows = None
    fresh = twin.count_many(METRICS[:3])
    assert grown.estimates == fresh.estimates
    assert grown.cost.bytes == fresh.cost.bytes

