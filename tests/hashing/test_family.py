"""Tests for the HashFamily abstraction."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashing.family import MD4Hash, MixerHash, default_hash_family


@pytest.fixture(params=[MixerHash, MD4Hash])
def family_cls(request):
    return request.param


class TestContract:
    def test_output_in_range(self, family_cls):
        h = family_cls(bits=24, seed=3)
        for item in (0, 1, "doc-17", b"\x00\xff", 2**70):
            assert 0 <= h(item) < 2**24

    def test_deterministic(self, family_cls):
        a = family_cls(bits=64, seed=11)
        b = family_cls(bits=64, seed=11)
        for item in ("x", 42, b"blob"):
            assert a(item) == b(item)

    def test_seed_changes_output(self, family_cls):
        a = family_cls(bits=64, seed=1)
        b = family_cls(bits=64, seed=2)
        diffs = sum(1 for i in range(200) if a(i) != b(i))
        assert diffs > 195

    def test_type_separation(self, family_cls):
        """int 1, True and '1' must not systematically collide."""
        h = family_cls(bits=64)
        assert len({h(1), h(True), h("1")}) == 3

    def test_unsupported_type_raises(self, family_cls):
        h = family_cls(bits=64)
        with pytest.raises(TypeError):
            h(3.14)

    def test_numpy_integers_hash_as_the_equal_int(self, family_cls):
        h = family_cls(bits=64, seed=7)
        for value in (0, 1, 5, -3, 2**31 - 1, -(2**63), 2**63 - 1):
            assert h(np.int64(value)) == h(value)
        for dtype in (np.int8, np.uint8, np.int32, np.uint32, np.uint64):
            assert h(dtype(5)) == h(5)
        assert h(np.uint64(2**64 - 1)) == h(2**64 - 1)
        assert h(("a", np.int32(3))) == h(("a", 3))

    def test_bool_keeps_its_tag_and_numpy_floats_raise(self, family_cls):
        h = family_cls(bits=64)
        assert h(True) != h(1) and h(False) != h(np.int64(0))
        with pytest.raises(TypeError):
            h(np.float64(3.0))

    def test_tuples_supported(self, family_cls):
        h = family_cls(bits=64)
        assert h(("rel", "hist", 3)) != h(("rel", "hist", 4))
        assert h(("a", 1)) == h(("a", 1))
        # Flattening must not alias: ("ab",) vs ("a", "b").
        assert h(("ab",)) != h(("a", "b"))

    def test_invalid_bits(self, family_cls):
        with pytest.raises(ValueError):
            family_cls(bits=0)

    def test_negative_ints_supported(self, family_cls):
        h = family_cls(bits=64)
        assert h(-1) != h(1)

    def test_equality_and_hash(self, family_cls):
        assert family_cls(bits=64, seed=5) == family_cls(bits=64, seed=5)
        assert family_cls(bits=64, seed=5) != family_cls(bits=64, seed=6)
        assert hash(family_cls(bits=32, seed=5)) == hash(family_cls(bits=32, seed=5))

    def test_mixer_and_md4_are_distinct_families(self):
        assert MixerHash(bits=64, seed=0) != MD4Hash(bits=64, seed=0)


class TestUniformity:
    def test_low_collision_rate(self, family_cls):
        h = family_cls(bits=64, seed=0)
        values = {h(f"item-{i}") for i in range(5_000)}
        assert len(values) == 5_000

    def test_bucket_balance_strings(self, family_cls):
        h = family_cls(bits=64, seed=0)
        buckets = [0] * 16
        n = 4_000
        for i in range(n):
            buckets[h(f"key:{i}") % 16] += 1
        for c in buckets:
            assert abs(c - n / 16) < 5 * (n / 16) ** 0.5


class TestDefaults:
    def test_default_family_is_mixer(self):
        assert isinstance(default_hash_family(), MixerHash)

    def test_default_bits(self):
        assert default_hash_family().bits == 64

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_default_family_total_on_ints(self, x):
        assert 0 <= default_hash_family()(x) < 2**64
