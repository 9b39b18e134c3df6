"""Differential: every insert entry point against ``tests/spec/dhs_spec.py``.

Each example builds one deployment twice.  The package copy writes
through ``insert``, ``insert_bulk``, ``insert_array`` or
``insert_observation_arrays``; the spec copy writes the same batches
with the naive reference and its own ``rng_for(seed, "dhs-insert")``.
Afterwards everything observable must agree: every node's slots in
store order (mask and ``expiring`` items in insertion order), its entry
count, every ``OpCost`` field, the per-node access load (counts and
first-seen order) and the key RNG's state — and every array-backed
slot's arena row must equal its mask.

The grid is the write path's whole configuration space: three overlays,
``ttl`` None/5, ``bit_shift`` 0/2, ``R`` 0/2, ``m`` 1/16/128, both slot
stores and both hash families, with duplicate items and positions past
``position_bits`` — each with the overlay's ``trace`` flag off and on,
since the traced and untraced routes keep their visited nodes apart.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.core.regstore import RegSlot
from repro.overlay.chord import ChordRing
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.pastry import PastryOverlay
from repro.overlay.stats import OpCost
from repro.sim.seeds import rng_for
from tests.spec import dhs_spec as spec

OVERLAYS = [ChordRing, KademliaOverlay, PastryOverlay]
ENTRY_POINTS = ["insert", "insert_bulk", "insert_array", "insert_observation_arrays"]
METRICS = ["docs", ("hist", 3)]
KEY_BITS = 16


def twins(overlay, n_nodes, ring_seed, seed, trace, **config):
    """The package deployment and its spec twin (same overlay, config)."""
    made = []
    for _ in range(2):
        dht = overlay.build(n_nodes, bits=32, seed=ring_seed)
        dht.trace = trace
        made.append(
            DistributedHashSketch(dht, DHSConfig(key_bits=KEY_BITS, **config), seed=seed)
        )
    return made


def snapshot(dhs):
    """Every node's slots in store order, and the load in first-seen order."""
    nodes = []
    for node_id in dhs.dht.node_ids():
        node = dhs.dht.node(node_id)
        slots = []
        for key, slot in node.store.items():
            if isinstance(slot, RegSlot):
                assert slot.arena.read_row(slot.row) == slot.mask, key
            slots.append((key, slot.mask, list((slot.expiring or {}).items())))
        nodes.append((node_id, slots))
    return nodes, list(dhs.dht.load.counts().items())


def package_write(dhs, entry, metric, batch, origin, now):
    inserter = dhs._inserter
    if entry == "insert_observation_arrays":
        vectors = np.array([v for v, _ in batch], dtype=np.int64)
        positions = np.array([p for _, p in batch], dtype=np.int64)
        return inserter.insert_observation_arrays(
            metric, vectors, positions, origin=origin, now=now
        )
    if entry == "insert":
        return inserter.insert_many(metric, batch, origin=origin, now=now)
    if entry == "insert_array":
        batch = np.array(batch, dtype=np.int64)
    return getattr(inserter, entry)(metric, batch, origin=origin, now=now)


def spec_write(dhs, rng, entry, metric, batch, origin, now):
    if entry == "insert_observation_arrays":
        return spec.bulk_insert(dhs, rng, metric, batch, origin, now)
    if entry == "insert":
        total = OpCost()
        for item in batch:
            total.add(spec.insert_items(dhs, rng, metric, [item], origin, now))
        return total
    return spec.insert_items(dhs, rng, metric, batch, origin, now)


@st.composite
def batches(draw, m):
    """1-3 batches: entry point, metric, origin slot, tick and payload."""
    position_bits = KEY_BITS - (m.bit_length() - 1)
    observation = st.tuples(
        st.integers(0, m - 1), st.integers(0, position_bits + 3)
    )
    out = []
    for _ in range(draw(st.integers(1, 3))):
        entry = draw(st.sampled_from(ENTRY_POINTS))
        if entry == "insert_observation_arrays":
            payload = draw(st.lists(observation, max_size=60))
        else:
            # A narrow id range makes duplicates common.
            payload = draw(st.lists(st.integers(0, 400), max_size=60))
        out.append(
            (
                entry,
                draw(st.sampled_from(METRICS)),
                draw(st.one_of(st.none(), st.integers(0, 50))),
                draw(st.sampled_from([0, 3, 9])),
                payload,
            )
        )
    return out


@st.composite
def scenarios(draw):
    m = draw(st.sampled_from([1, 16, 128]))
    return dict(
        overlay=draw(st.sampled_from(OVERLAYS)),
        n_nodes=draw(st.integers(1, 20)),
        ring_seed=draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 3)),
        trace=draw(st.booleans()),
        config=dict(
            num_bitmaps=m,
            ttl=draw(st.sampled_from([None, 5])),
            bit_shift=draw(st.sampled_from([0, 2])),
            replication=draw(st.sampled_from([0, 2])),
            store=draw(st.sampled_from(["array", "packed"])),
            hash_family_name=draw(st.sampled_from(["mixer", "md4"])),
        ),
        batches=draw(batches(m)),
    )


def assert_matches_spec(overlay, n_nodes, ring_seed, seed, trace, config, batches):
    package, reference = twins(overlay, n_nodes, ring_seed, seed, trace, **config)
    rng = rng_for(seed, "dhs-insert")
    node_ids = package.dht.node_ids()
    for entry, metric, origin_slot, now, batch in batches:
        origin = None if origin_slot is None else node_ids[origin_slot % len(node_ids)]
        got = package_write(package, entry, metric, batch, origin, now)
        expected = spec_write(reference, rng, entry, metric, batch, origin, now)
        assert dataclasses.asdict(got) == dataclasses.asdict(expected), entry
    assert snapshot(package) == snapshot(reference)
    assert package._inserter._rng.getstate() == rng.getstate()


@given(scenario=scenarios())
@settings(max_examples=300, deadline=None)
def test_every_entry_point_matches_the_spec(scenario):
    assert_matches_spec(**scenario)


@pytest.mark.parametrize("overlay", OVERLAYS)
@pytest.mark.parametrize("ttl", [None, 5])
@pytest.mark.parametrize("m", [1, 16, 128])
@pytest.mark.parametrize("store", ["array", "packed"])
def test_grid_corners(overlay, ttl, m, store):
    """Every overlay x ttl x m x store once, with shift and replicas on."""
    grid_corner(overlay, ttl, m, store, trace=True)


@pytest.mark.parametrize("overlay", OVERLAYS)
@pytest.mark.parametrize("ttl", [None, 5])
@pytest.mark.parametrize("m", [1, 16, 128])
@pytest.mark.parametrize("store", ["array", "packed"])
def test_grid_corners_untraced(overlay, ttl, m, store):
    """The same grid on the untraced route, which keeps no per-hop path."""
    grid_corner(overlay, ttl, m, store, trace=False)


def grid_corner(overlay, ttl, m, store, trace):
    position_bits = KEY_BITS - (m.bit_length() - 1)
    observations = [
        (v % m, p) for v in range(0, 40, 3) for p in (0, 2, 5, position_bits + 9)
    ]
    assert_matches_spec(
        overlay, 12, 1, 2, trace,
        dict(num_bitmaps=m, ttl=ttl, bit_shift=2, replication=2, store=store),
        [
            ("insert_observation_arrays", "docs", 0, 0, observations * 2),
            ("insert_bulk", "docs", 3, 3, list(range(300)) + list(range(50))),
            ("insert_array", ("hist", 3), None, 3, list(range(100, 400))),
            ("insert", "docs", 5, 9, list(range(40))),
        ],
    )
