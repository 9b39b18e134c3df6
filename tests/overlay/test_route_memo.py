"""Chord's route memo, end to end: counts cannot tell it is there, and
it stays bounded.

``test_chord_routing_differential.py`` holds every memo hit to the naive
oracle one lookup at a time; here whole counts run on two identical
deployments, one of which forgets every route before each count, and
must agree on everything they report and charge.
"""

import numpy as np
import pytest

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.overlay.chord import ROUTE_CACHE_CAP, ChordRing
from repro.sim.seeds import rng_for


def _deployment(estimator):
    ring = ChordRing.build(256, bits=32, seed=11)
    config = DHSConfig(key_bits=20, num_bitmaps=16, lim=5, estimator=estimator)
    dhs = DistributedHashSketch(ring, config, seed=2)
    items = np.arange(30_000, dtype=np.int64)
    origins = list(ring.node_ids())
    for start in range(0, len(items), 3_000):
        dhs.insert_array("docs", items[start:start + 3_000], origin=origins[start % 97])
    return dhs


@pytest.mark.parametrize("estimator", ["sll", "pcsa"])
def test_counts_identical_with_and_without_memo_hits(estimator):
    warm, cold = _deployment(estimator), _deployment(estimator)
    origins = list(warm.dht.node_ids())[::37]  # a few querying nodes, revisited
    for i in range(200):
        origin = origins[i % len(origins)]
        cold.dht._route_cache.clear()
        a = warm.count("docs", origin=origin, now=i)
        b = cold.count("docs", origin=origin, now=i)
        assert a.estimates == b.estimates
        assert a.cost == b.cost
        assert a.probes == b.probes and a.probed_ids == b.probed_ids
    assert warm.dht.load.counts() == cold.dht.load.counts()
    # The warm copy really replayed routes.
    assert any(path is not None for path in warm.dht._route_cache.values())


@pytest.mark.parametrize("n_nodes", [100, 4096])
def test_memo_stays_under_its_cap(n_nodes):
    """20,000 random lookups fill the memo past its cap, on a ring with
    few more pairs than the cap and on one with 4,000 times as many."""
    ring = ChordRing.build(n_nodes, bits=64, seed=5)
    rng = rng_for(5, "route-memo-cap")
    cleared = 0
    for _ in range(20_000):
        before = len(ring._route_cache)
        ring.lookup(rng.randrange(ring.space.size), origin=ring.random_live_node(rng))
        assert len(ring._route_cache) <= ROUTE_CACHE_CAP
        cleared += len(ring._route_cache) < before
    assert cleared
