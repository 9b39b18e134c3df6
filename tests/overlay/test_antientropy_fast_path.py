"""Converged directions stay on the packed fast path: counts, not timings.

A round checks both directions of a chain pair on one packed int per
node, and only a direction whose offer the receiver does not already
hold spells its views out: ``_sync_direction`` unpacks ``ChainView``
dicts and builds tuple summaries.  On a converged deployment of each
overlay one round therefore calls ``_sync_direction`` zero times and
unpacks nothing, and the divergence gauge unpacks nothing either.
After deleting one entry from each of ``k`` chain replicas, exactly the
``k`` pushes to those replicas take the dict path — the directions the
per-pair oracle (``tests/overlay/antientropy_oracle.py``) finds
unconverged — and only their senders' views are unpacked.
"""

import pytest

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.core.maintenance import replica_divergence
from repro.core.tuples import write_entry
from repro.overlay import antientropy
from repro.overlay.chord import ChordRing
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.node import store_changed
from repro.overlay.pastry import PastryOverlay
from repro.overlay.replication import ChainView
from tests.overlay import antientropy_oracle as oracle

NOW = 0
REPLICATION = 2
OVERLAYS = {
    "chord": ChordRing.build,
    "kademlia": KademliaOverlay.build,
    "pastry": PastryOverlay.build,
}


def converged(overlay):
    """A replicated deployment after anti-entropy reached its fixed point."""
    dht = OVERLAYS[overlay](48, bits=16, seed=3)
    dhs = DistributedHashSketch(
        dht, DHSConfig(key_bits=8, num_bitmaps=8, replication=REPLICATION), seed=1
    )
    dhs.insert_bulk("docs", range(600), origin=dht.node_ids()[0], now=NOW)
    for _ in range(6):
        if dhs.antientropy(NOW).entries_written == 0:
            break
    else:
        pytest.fail("anti-entropy never reached the write-free fixed point")
    dht.load.reset()
    return dhs


@pytest.fixture
def spy(monkeypatch):
    """Start recording every dict-path direction and every unpacked view."""

    def start():
        calls = {"directions": [], "unpacked": []}
        sync_direction, unpack = antientropy._sync_direction, ChainView.unpack

        def _sync_direction(view, src_id, dst_id, *args, **kwargs):
            calls["directions"].append((src_id, dst_id))
            return sync_direction(view, src_id, dst_id, *args, **kwargs)

        def _unpack(self, node_id, packed):
            calls["unpacked"].append(node_id)
            return unpack(self, node_id, packed)

        monkeypatch.setattr(antientropy, "_sync_direction", _sync_direction)
        monkeypatch.setattr(ChainView, "unpack", _unpack)
        return calls

    return start


def oracle_geometry(dhs):
    """The callables the per-pair oracle takes, for ``dhs``'s mapping."""
    mapping, dht = dhs.mapping, dhs.dht

    def visible(bit, node_id):
        if not mapping.is_stored(bit):
            return True
        return node_id in dht.interval_reach(*mapping.interval_for_position(bit))

    def segment_of(bit):
        return mapping.interval_index(bit) if mapping.is_stored(bit) else -1

    def write_fn(node, metric, vector, bit, expiry):
        write_entry(node, metric, vector, bit, expiry)

    return dict(visible=visible, segment_of=segment_of, write_fn=write_fn)


def drop_replicas(dhs, k):
    """Delete one primary entry from the first replica of ``k`` nodes.

    Each deletion marks its store change, as every store mutation must:
    the facade's kept chain view re-reads only the stores marked changed.
    """
    dht = dhs.dht
    view = ChainView(dht, NOW)
    dropped = []
    for node_id in view.ids:
        if len(dropped) == k:
            break
        primary = view.unpack(node_id, view.primary(node_id, REPLICATION))
        if not primary:
            continue
        key, mask = next(iter(primary.items()))
        replica = view.successors(node_id, REPLICATION)[0]
        if replica in {r for _, r in dropped}:
            continue
        dht.node(replica).store[key].mask &= ~(mask & -mask)
        store_changed(dht.node(replica))  # as every store mutation does
        dropped.append((node_id, replica))
    assert len(dropped) == k
    return dropped


@pytest.mark.parametrize("overlay", sorted(OVERLAYS))
def test_converged_round_and_gauge_build_no_dict_views(overlay, spy):
    dhs = converged(overlay)
    calls = spy()
    stats = dhs.antientropy(NOW)
    assert stats.pairs > 0
    assert stats.pairs_converged == stats.pairs
    assert calls == {"directions": [], "unpacked": []}
    assert dhs.replica_divergence(NOW) == 0
    assert calls["unpacked"] == []


@pytest.mark.parametrize("overlay", sorted(OVERLAYS))
def test_only_the_affected_directions_take_the_dict_path(overlay, spy):
    fast, slow = converged(overlay), converged(overlay)
    seeded = drop_replicas(fast, 3)
    assert drop_replicas(slow, 3) == seeded
    calls = spy()
    assert replica_divergence(fast.dht, REPLICATION, NOW) > 0
    assert calls["unpacked"] == []  # the gauge stays packed on a divergent ring too

    log = []
    want = oracle.antientropy_round(
        slow.dht, REPLICATION, NOW, log=log, **oracle_geometry(slow)
    )
    got = fast.antientropy(NOW)
    assert got == want
    # Each deletion breaks exactly one push: its primary to that replica.
    assert calls["directions"] == log == seeded
    assert set(calls["unpacked"]) == {src for src, _ in log}
    assert fast.dht.load.counts() == slow.dht.load.counts()
    assert replica_divergence(fast.dht, REPLICATION, NOW) == 0
