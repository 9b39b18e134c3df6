"""``insert_array`` is an exact twin of the scalar bulk path.

The vectorized inserter must be *indistinguishable* from
``insert_bulk`` given the same items, seed and overlay: same stored
tuples on the same nodes, same random target keys (hence the same
``OpCost``, hop for hop).  These tests pin that equivalence, the md4
branch, the grouped write against ``tests/spec/dhs_spec.py``, the
rejection of out-of-range observations, and the zero-cost contract for
positions below ``bit_shift``.
"""

import numpy as np
import pytest

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.core.tuples import bits_of
from repro.overlay.chord import ChordRing
from repro.overlay.stats import OpCost
from repro.sim.seeds import rng_for
from tests.spec import dhs_spec as spec


def make_dhs(n_nodes=64, bits=32, key_bits=16, m=16, trace=False, **kwargs):
    ring = ChordRing.build(n_nodes, bits=bits, seed=3, trace=trace)
    config = DHSConfig(key_bits=key_bits, num_bitmaps=m, **kwargs)
    return DistributedHashSketch(ring, config, seed=1)


def stored_state(dhs):
    """Full logical store of the deployment: node -> sorted entry keys."""
    state = {}
    for node_id in dhs.dht.node_ids():
        node = dhs.dht.node(node_id)
        if node.store:
            state[node_id] = sorted(
                (key, sorted(bits_of(slot.mask) + list(slot.expiring or {})))
                for key, slot in node.store.items()
            )
    return state


def assert_costs_equal(a: OpCost, b: OpCost):
    assert a.hops == b.hops
    assert a.messages == b.messages
    assert a.bytes == b.bytes
    assert a.lookups == b.lookups
    assert a.nodes_visited == b.nodes_visited


class TestArrayVsBulk:
    @pytest.mark.parametrize(
        "kwargs", [{}, {"bit_shift": 3}, {"replication": 2}, {"ttl": 5}]
    )
    def test_exact_equality(self, kwargs):
        scalar = make_dhs(trace=True, **kwargs)
        vectorized = make_dhs(trace=True, **kwargs)
        items = list(range(2000)) + list(range(500))  # duplicates included
        origin = scalar.dht.node_ids()[0]
        cost_scalar = scalar.insert_bulk("docs", items, origin=origin)
        cost_array = vectorized.insert_array(
            "docs", np.array(items, dtype=np.int64), origin=origin
        )
        assert_costs_equal(cost_scalar, cost_array)
        assert stored_state(scalar) == stored_state(vectorized)

    def test_equality_holds_across_repeated_batches(self):
        """The shared RNG stays in lockstep batch after batch."""
        scalar = make_dhs()
        vectorized = make_dhs()
        for batch in range(5):
            items = list(range(batch * 300, batch * 300 + 300))
            cost_scalar = scalar.insert_bulk("docs", items)
            cost_array = vectorized.insert_array(
                "docs", np.array(items, dtype=np.int64)
            )
            assert_costs_equal(cost_scalar, cost_array)
        assert stored_state(scalar) == stored_state(vectorized)

    def test_facade_delegates(self):
        dhs = make_dhs()
        cost = dhs.insert_array("docs", np.arange(100, dtype=np.int64))
        assert cost.lookups > 0

    def test_accepts_python_list(self):
        scalar = make_dhs()
        vectorized = make_dhs()
        cost_scalar = scalar.insert_bulk("docs", range(250))
        cost_array = vectorized.insert_array("docs", list(range(250)))
        assert_costs_equal(cost_scalar, cost_array)

    def test_empty_array(self):
        dhs = make_dhs()
        cost = dhs.insert_array("docs", np.array([], dtype=np.int64))
        assert cost.hops == 0
        assert cost.lookups == 0

    def test_md4_falls_back_to_scalar_path(self):
        scalar = make_dhs(hash_family_name="md4")
        vectorized = make_dhs(hash_family_name="md4")
        items = list(range(300))
        cost_scalar = scalar.insert_bulk("docs", items)
        cost_array = vectorized.insert_array(
            "docs", np.array(items, dtype=np.int64)
        )
        assert_costs_equal(cost_scalar, cost_array)
        assert stored_state(scalar) == stored_state(vectorized)

    @pytest.mark.parametrize("hash_family_name", ["mixer", "md4"])
    @pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.int8])
    def test_bulk_takes_numpy_integer_items(self, hash_family_name, dtype):
        """``insert_bulk`` over numpy integers is ``insert_array`` over
        the same ids: same stores, cost and key-RNG state."""
        scalar = make_dhs(trace=True, hash_family_name=hash_family_name)
        vectorized = make_dhs(trace=True, hash_family_name=hash_family_name)
        ids = np.arange(120).astype(dtype)
        cost_scalar = scalar.insert_bulk("docs", ids)
        cost_array = vectorized.insert_array("docs", ids)
        assert cost_scalar == cost_array
        assert stored_state(scalar) == stored_state(vectorized)
        assert scalar._inserter._rng.getstate() == vectorized._inserter._rng.getstate()

    @pytest.mark.parametrize("hash_family_name", ["mixer", "md4"])
    def test_insert_takes_a_numpy_integer(self, hash_family_name):
        native = make_dhs(trace=True, hash_family_name=hash_family_name)
        numpy = make_dhs(trace=True, hash_family_name=hash_family_name)
        for item in range(40):
            assert numpy.insert("docs", np.int64(item)) == native.insert("docs", item)
        assert stored_state(numpy) == stored_state(native)

    @pytest.mark.parametrize("hash_family_name", ["mixer", "md4"])
    @pytest.mark.parametrize("item", [2**63, 2**64 - 1])
    def test_uint64_ids_past_int64_hash_as_their_own_value(self, hash_family_name, item):
        """A ``uint64`` id at or above 2^63 is not wrapped to a negative."""
        native = make_dhs(trace=True, hash_family_name=hash_family_name)
        array = make_dhs(trace=True, hash_family_name=hash_family_name)
        cost_native = native.insert("docs", item)
        cost_array = array.insert_array("docs", np.array([item], dtype=np.uint64))
        assert cost_array == cost_native
        assert stored_state(array) == stored_state(native)


class TestObservationArrays:
    def test_matches_insert_observations(self):
        """The grouped write matches the naive reference insert."""
        vectorized = make_dhs(bit_shift=2)
        reference = make_dhs(bit_shift=2)
        rng = np.random.default_rng(7)
        vectors = rng.integers(0, 16, size=1500)
        positions = rng.integers(0, 14, size=1500)
        cost_spec = spec.bulk_insert(
            reference, rng_for(1, "dhs-insert"), "docs",
            zip(vectors.tolist(), positions.tolist()),
        )
        cost_array = vectorized._inserter.insert_observation_arrays(
            "docs", vectors, positions
        )
        assert_costs_equal(cost_spec, cost_array)
        assert stored_state(reference) == stored_state(vectorized)

    def test_clamps_overlong_positions(self):
        vectorized = make_dhs()
        reference = make_dhs()
        position_bits = reference.config.position_bits
        pairs = [(1, position_bits + 40), (2, position_bits - 1), (1, 0)]
        cost_spec = spec.bulk_insert(reference, rng_for(1, "dhs-insert"), "docs", pairs)
        cost_array = vectorized._inserter.insert_observation_arrays(
            "docs",
            np.array([v for v, _ in pairs], dtype=np.int64),
            np.array([p for _, p in pairs], dtype=np.int64),
        )
        assert_costs_equal(cost_spec, cost_array)
        assert stored_state(reference) == stored_state(vectorized)
        assert stored_state(vectorized)

    def test_all_below_bit_shift_is_free(self):
        dhs = make_dhs(bit_shift=6)
        cost = dhs._inserter.insert_observation_arrays(
            "docs",
            np.array([0, 1, 2], dtype=np.int64),
            np.array([0, 3, 5], dtype=np.int64),
        )
        assert cost.hops == 0
        assert cost.lookups == 0
        assert stored_state(dhs) == {}


class TestOutOfRangeObservations:
    """A vector outside ``[0, m)`` or a negative position used to alias
    into a neighbouring slot; it must fail before the first store."""

    @pytest.mark.parametrize("ttl", [None, 5])
    @pytest.mark.parametrize("bad", [(16, 0), (-1, 4), (3, -1)])
    def test_raises_before_any_store(self, bad, ttl):
        dhs = make_dhs(ttl=ttl)
        rng_before = dhs._inserter._rng.getstate()
        vectors = np.array([1, 2, bad[0]], dtype=np.int64)
        positions = np.array([3, 5, bad[1]], dtype=np.int64)
        with pytest.raises(ValueError, match="observation"):
            dhs._inserter.insert_observation_arrays("docs", vectors, positions)
        assert stored_state(dhs) == {}
        assert dhs._inserter._rng.getstate() == rng_before


#: Ids an ``int64`` cast used to misread: ``1.5`` became item 1, ``True``
#: item 1, a ``(2, 2)`` array and a bare scalar were hashed as something
#: else, and strings failed with numpy's own error.
NOT_ONE_D_INTEGER_IDS = [
    pytest.param([1.5], id="float"),
    pytest.param(np.arange(4, dtype=np.int64).reshape(2, 2), id="2d"),
    pytest.param(["a", "b"], id="str"),
    pytest.param([True, False], id="bool"),
    pytest.param(7, id="scalar"),
]


class TestRejectsIdsThatAreNotOneDInteger:
    @pytest.mark.parametrize("hash_family_name", ["mixer", "md4"])
    @pytest.mark.parametrize("ids", NOT_ONE_D_INTEGER_IDS)
    def test_insert_array_raises_before_any_store(self, ids, hash_family_name):
        dhs = make_dhs(hash_family_name=hash_family_name)
        rng_before = dhs._inserter._rng.getstate()
        with pytest.raises(ValueError, match="1-D array of integers"):
            dhs.insert_array("docs", ids)
        assert stored_state(dhs) == {}
        assert dhs._inserter._rng.getstate() == rng_before

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint32, np.int64])
    def test_every_integer_dtype_hashes_like_int64(self, dtype):
        ids = np.arange(200)
        expected = make_dhs()._inserter.observations(ids)
        got = make_dhs()._inserter.observations(ids.astype(dtype))
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))


class TestBitShiftZeroCost:
    """Positions below ``bit_shift`` are assumed set: they must store
    nothing and contribute exactly zero cost (section 3.5) — the
    ``insert_many`` docstring's "at most one DHT store each" contract."""

    def _low_position_items(self, dhs, shift, want=20):
        items = []
        for item in range(20_000):
            _, position = dhs._inserter.observation(item)
            if position < shift:
                items.append(item)
                if len(items) == want:
                    return items
        pytest.fail("not enough low-position items found")

    def test_insert_is_free_below_shift(self):
        dhs = make_dhs(bit_shift=8)
        for item in self._low_position_items(dhs, 8):
            cost = dhs.insert("docs", item)
            assert cost.hops == 0
            assert cost.messages == 0
            assert cost.bytes == 0
            assert cost.lookups == 0
        assert stored_state(dhs) == {}

    def test_insert_many_is_free_below_shift(self):
        dhs = make_dhs(bit_shift=8)
        items = self._low_position_items(dhs, 8)
        cost = dhs._inserter.insert_many("docs", items)
        assert cost.hops == 0
        assert cost.lookups == 0
        assert stored_state(dhs) == {}
