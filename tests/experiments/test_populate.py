"""``populate_metric`` hashes in owner blocks; nothing it stores may move.

The reference below is the all-at-once form written naively — hash the
whole metric with one ``observations_np`` call, draw every owner, give
owner *i* ``np.flatnonzero(choices == i)`` — and twin deployments pin
``populate_metric`` to it: same node stores in the same store order,
same ``OpCost``, same inserter-RNG position, same following count.
``assign_uniform`` is pinned to the same naive definition at every dtype
edge of its narrow key and across its draw chunks, and ``tracemalloc``
ceilings keep metric-sized observation arrays and a full-size ``int64``
draw or ``intp`` owner permutation from coming back.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.experiments import common
from repro.experiments.common import populate_metric
from repro.hashing.vectorized import observations_np
from repro.overlay.chord import ChordRing
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.pastry import PastryOverlay
from repro.overlay.stats import OpCost
from repro.sim.seeds import derive_seed
from repro.workloads import assignment
from repro.workloads.assignment import assign_uniform
from tests.core.test_insert_array import NOT_ONE_D_INTEGER_IDS

BLOCK = common._BLOCK_ITEMS
ASSIGN_CHUNK = assignment._CHUNK_ITEMS
OVERLAYS = [ChordRing, KademliaOverlay, PastryOverlay]

#: ``tracemalloc`` peak of one ``populate_metric`` call, in multiples of
#: the id array (7.25 when the whole metric was hashed first, 1.98 with
#: an ``intp`` owner permutation, 1.48 now).
POPULATE_PEAK_CEILING = 1.75
#: Heap a finished ``populate_metric`` may retain per item, in bytes
#: (measured 0.08, all of it node stores; 0.30 under a line tracer, whose
#: bookkeeping tracemalloc also sees).  Any array of the metric's length
#: kept alive costs at least 1.
POPULATE_RETAINED_CEILING = 1.0
#: ``assign_uniform(2_000_000, 1024 nodes)`` heap per item, in bytes: the
#: ``uint32`` permutation it returns (4) and, at peak, also the ``uint16``
#: owner keys and one chunk's temporaries.
ASSIGN_RETAINED_CEILING = 4.5
ASSIGN_PEAK_CEILING = 8.0


def make_dhs(overlay=ChordRing, n_nodes=48, **config):
    dht = overlay.build(n_nodes, bits=32, seed=3)
    return DistributedHashSketch(
        dht, DHSConfig(key_bits=16, num_bitmaps=16, **config), seed=1
    )


def item_array(n_items):
    """Distinct non-negative ids that are not their own indices."""
    return np.arange(n_items, dtype=np.int64) * 7 + 3


def naive_choices(n_items, n_nodes, seed):
    rng = np.random.default_rng(derive_seed(seed, "assignment") % (2**32))
    return rng.integers(0, n_nodes, size=n_items)


def reference_populate(dhs, metric_id, item_ids, seed=0, now=0):
    config = dhs.config
    if config.hash_family_name == "mixer":
        vectors, positions = observations_np(
            item_ids, config.num_bitmaps, config.key_bits, seed=config.hash_seed
        )
    else:
        pairs = [dhs._inserter.observation(int(item)) for item in item_ids]
        vectors = np.array([v for v, _ in pairs], dtype=np.int64)
        positions = np.array([p for _, p in pairs], dtype=np.int64)
    node_ids = list(dhs.dht.node_ids())
    choices = naive_choices(len(item_ids), len(node_ids), derive_seed(seed, "owners"))
    total = OpCost()
    for i, node_id in enumerate(node_ids):
        mine = np.flatnonzero(choices == i)
        if mine.size:
            total.add(
                dhs._inserter.insert_observation_arrays(
                    metric_id, vectors[mine], positions[mine], origin=node_id, now=now
                )
            )
    return total


def node_stores(dhs):
    """Every node's slots, in store order: ``(key, mask, expiring)``."""
    stores = {}
    for node_id in dhs.dht.node_ids():
        store = dhs.dht.node(node_id).store
        if store:
            stores[node_id] = [
                (key, slot.mask, dict(slot.expiring or {})) for key, slot in store.items()
            ]
    return stores


def assert_twins_agree(n_items, now=0, **deployment):
    reference, blocked = make_dhs(**deployment), make_dhs(**deployment)
    item_ids = item_array(n_items)
    expected = reference_populate(reference, "docs", item_ids, seed=11, now=now)
    got = populate_metric(blocked, "docs", item_ids, seed=11, now=now)
    assert dataclasses.asdict(got) == dataclasses.asdict(expected)
    assert node_stores(blocked) == node_stores(reference)
    assert blocked._inserter._rng.getstate() == reference._inserter._rng.getstate()
    origin = reference.dht.node_ids()[0]
    count_expected = reference.count("docs", origin=origin, now=now)
    count_got = blocked.count("docs", origin=origin, now=now)
    assert count_got.estimate() == count_expected.estimate()
    assert dataclasses.asdict(count_got.cost) == dataclasses.asdict(count_expected.cost)
    if n_items:
        assert node_stores(blocked)


class TestDifferential:
    @pytest.mark.parametrize("ttl", [None, 50])
    @pytest.mark.parametrize("overlay", OVERLAYS)
    def test_every_overlay_with_and_without_ttl(self, overlay, ttl):
        assert_twins_agree(3 * BLOCK + 1, now=7, overlay=overlay, ttl=ttl)

    @pytest.mark.parametrize("n_items", [0, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_item_counts_around_one_block(self, n_items):
        assert_twins_agree(n_items, n_nodes=16)

    def test_owner_share_larger_than_a_block(self):
        assert_twins_agree(3 * BLOCK + 1, n_nodes=2)

    def test_one_node(self):
        assert_twins_agree(BLOCK + 1, n_nodes=1)

    def test_more_nodes_than_items(self):
        assert_twins_agree(20, n_nodes=64)

    def test_md4_scalar_branch(self, monkeypatch):
        # MD4 is pure Python: shrink the block so three blocks stay cheap.
        monkeypatch.setattr(common, "_BLOCK_ITEMS", 128)
        assert_twins_agree(3 * 128 + 1, n_nodes=8, hash_family_name="md4")

    def test_bit_shift_drops_low_positions(self):
        assert_twins_agree(BLOCK + 1, bit_shift=3)

    def test_accepts_any_array_like(self):
        from_list, from_array = make_dhs(), make_dhs()
        ids = [5, 3, 99, 12, 7, 1_000_003]
        a = populate_metric(from_list, "docs", ids, seed=2)
        b = populate_metric(from_array, "docs", np.array(ids, dtype=np.int64), seed=2)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
        assert node_stores(from_list) == node_stores(from_array)


class TestFailsBeforeTheFirstWrite:
    @pytest.mark.parametrize("hash_family_name", ["mixer", "md4"])
    def test_negative_id_in_last_block_stores_nothing(
        self, hash_family_name, monkeypatch
    ):
        monkeypatch.setattr(common, "_BLOCK_ITEMS", 64)
        dhs = make_dhs(n_nodes=8, hash_family_name=hash_family_name)
        item_ids = item_array(3 * 64 + 1)
        owners = assign_uniform(
            len(item_ids), list(dhs.dht.node_ids()), seed=derive_seed(11, "owners")
        )
        last_owner_indices = list(owners.values())[-1]
        item_ids[last_owner_indices[-1]] = -1
        rng_before = dhs._inserter._rng.getstate()
        with pytest.raises(ValueError, match="non-negative"):
            populate_metric(dhs, "docs", item_ids, seed=11)
        assert node_stores(dhs) == {}
        assert dhs._inserter._rng.getstate() == rng_before

    @pytest.mark.parametrize("ids", NOT_ONE_D_INTEGER_IDS)
    def test_ids_that_are_not_one_d_integer_store_nothing(self, ids, monkeypatch):
        """``[1.5]`` used to populate item 1; checked before owners are drawn."""

        def no_draw(*args, **kwargs):
            raise AssertionError("owners drawn for ids that were never valid")

        monkeypatch.setattr(common, "assign_uniform", no_draw)
        dhs = make_dhs(n_nodes=8)
        rng_before = dhs._inserter._rng.getstate()
        with pytest.raises(ValueError, match="1-D array of integers"):
            populate_metric(dhs, "docs", ids, seed=11)
        assert node_stores(dhs) == {}
        assert dhs._inserter._rng.getstate() == rng_before


class TestAssignUniformPinned:
    @pytest.mark.parametrize("n_nodes", [1, 255, 256, 257, 65_536, 70_000])
    def test_matches_naive_definition(self, n_nodes):
        """Every dtype edge of the narrow key (uint8 / uint16 / uint32),
        within one draw chunk and across more than three of them."""
        node_ids = [7 * i + 3 for i in range(n_nodes)]
        for n_items in (4000, 3 * ASSIGN_CHUNK + 2):
            choices = naive_choices(n_items, n_nodes, seed=5)
            assert choices.dtype == np.int64
            # Stable grouping of the one-shot draw: owner i gets
            # np.flatnonzero(choices == i), owners in node order.
            order = np.argsort(choices, kind="stable")
            owners, starts = np.unique(choices[order], return_index=True)
            expected = {
                node_ids[i]: indices
                for i, indices in zip(owners.tolist(), np.split(order, starts[1:]))
            }
            got = assign_uniform(n_items, node_ids, seed=5)
            assert list(got) == list(expected)
            for node_id, indices in got.items():
                assert indices.dtype == np.min_scalar_type(n_items - 1)
                assert np.array_equal(indices, expected[node_id])

    def test_no_items(self):
        assert assign_uniform(0, [1, 2, 3], seed=5) == {}


class TestMemoryRegression:
    def test_assignment_holds_a_narrow_permutation(self):
        """Parent code held 8.1 B/item after return and 10.1 at peak.

        tracemalloc does not see numpy's radix-sort scratch, so RSS shows
        more than this test does.
        """
        n_items, node_ids = 2_000_000, list(range(1024))
        assign_uniform(1, node_ids)  # numpy.random's lazy import, untraced
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            owners = assign_uniform(n_items, node_ids, seed=4)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(owners) == 1024
        assert after - before <= ASSIGN_RETAINED_CEILING * n_items
        assert peak - before <= ASSIGN_PEAK_CEILING * n_items

    def test_populate_peak_is_block_sized(self):
        """Hashing the whole metric before the first insert fails here."""
        dhs = make_dhs(n_nodes=64)
        item_ids = np.arange(400_000, dtype=np.int64)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            populate_metric(dhs, "docs", item_ids, seed=4)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= POPULATE_PEAK_CEILING * item_ids.nbytes
        assert after - before <= POPULATE_RETAINED_CEILING * len(item_ids)
