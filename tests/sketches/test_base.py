"""Tests for the HashSketch base machinery: key splitting, config, merging."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, IncompatibleSketchError
from repro.hashing.bits import rho
from repro.hashing.family import MD4Hash, MixerHash
from repro.sketches import (
    PCSASketch,
    SKETCH_TYPES,
    SuperLogLogSketch,
    required_key_bits,
    split_key,
)

ALL_SKETCHES = [PCSASketch, SuperLogLogSketch]


@pytest.fixture(params=ALL_SKETCHES)
def sketch_cls(request):
    return request.param


class TestSplitKey:
    def test_single_bucket(self):
        # m=1: vector always 0, position = rho of the whole key.
        vector, position = split_key(0b1011000, m=1, key_bits=24)
        assert vector == 0
        assert position == 3

    def test_vector_uses_low_bits(self):
        vector, _ = split_key(0b110101, m=4, key_bits=24)
        assert vector == 0b01

    def test_position_uses_remaining_bits(self):
        # key = 0b110100 with m=4: low 2 bits -> vector 0, remaining
        # 0b1101 -> rho = 0.
        vector, position = split_key(0b110100, m=4, key_bits=24)
        assert vector == 0
        assert position == 0

    def test_zero_suffix_convention(self):
        # Remaining bits all zero => position == key_bits - c.
        vector, position = split_key(0b11, m=4, key_bits=24)
        assert vector == 3
        assert position == 22

    def test_truncates_to_key_bits(self):
        a = split_key(0xDEADBEEF, m=8, key_bits=16)
        b = split_key(0xDEADBEEF & 0xFFFF, m=8, key_bits=16)
        assert a == b

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_consistent_with_manual_split(self, key):
        m, k = 16, 32
        vector, position = split_key(key, m, k)
        truncated = key & (2**k - 1)
        assert vector == truncated % m
        assert position == rho(truncated // m, k - 4)


class TestRequiredKeyBits:
    def test_paper_example_magnitude(self):
        # Counting up to 2^24 items with one bitmap needs ~27 bits.
        assert required_key_bits(2**24, m=1) == 27

    def test_grows_with_cardinality(self):
        assert required_key_bits(10**6, 64) < required_key_bits(10**9, 64)

    def test_accounts_for_bucket_split(self):
        # More buckets -> fewer items each -> fewer position bits, but the
        # c selector bits are added back.
        assert required_key_bits(2**20, m=1) == 23
        assert required_key_bits(2**20, m=1024) == 10 + 13

    def test_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            required_key_bits(0, 16)
        with pytest.raises(ConfigurationError):
            required_key_bits(100, 3)


class TestConfiguration:
    def test_m_must_be_power_of_two(self, sketch_cls):
        with pytest.raises(ConfigurationError):
            sketch_cls(m=3)

    def test_m_must_be_positive(self, sketch_cls):
        with pytest.raises(ConfigurationError):
            sketch_cls(m=0)

    def test_key_bits_must_exceed_selector(self, sketch_cls):
        with pytest.raises(ConfigurationError):
            sketch_cls(m=256, key_bits=8)

    def test_position_bits(self, sketch_cls):
        sketch = sketch_cls(m=256, key_bits=24)
        assert sketch.position_bits == 16

    def test_default_hash_family(self, sketch_cls):
        assert isinstance(sketch_cls(m=16).hash_family, MixerHash)


class TestMergeCompatibility:
    def test_different_m_rejected(self, sketch_cls):
        with pytest.raises(IncompatibleSketchError):
            sketch_cls(m=16).merge(sketch_cls(m=32))

    def test_different_key_bits_rejected(self, sketch_cls):
        with pytest.raises(IncompatibleSketchError):
            sketch_cls(m=16, key_bits=32).merge(sketch_cls(m=16, key_bits=24))

    def test_different_hash_family_rejected(self, sketch_cls):
        a = sketch_cls(m=16, hash_family=MixerHash(seed=1))
        b = sketch_cls(m=16, hash_family=MixerHash(seed=2))
        with pytest.raises(IncompatibleSketchError):
            a.merge(b)

    def test_md4_vs_mixer_rejected(self, sketch_cls):
        a = sketch_cls(m=16, hash_family=MixerHash())
        b = sketch_cls(m=16, hash_family=MD4Hash())
        with pytest.raises(IncompatibleSketchError):
            a.merge(b)

    def test_cross_type_rejected(self):
        with pytest.raises(IncompatibleSketchError):
            PCSASketch(m=16).merge(SuperLogLogSketch(m=16))


class TestRegistry:
    def test_all_types_registered(self):
        assert set(SKETCH_TYPES) == {"pcsa", "sll"}

    def test_registry_constructs(self):
        for cls in SKETCH_TYPES.values():
            assert cls(m=16).is_empty()


class TestObservation:
    def test_observation_matches_add(self, sketch_cls):
        sketch = sketch_cls(m=16)
        vector, position = sketch.observation("item-9")
        sketch.add("item-9")
        clone = sketch_cls(m=16)
        clone.record(vector, position)
        if hasattr(sketch, "registers"):
            assert sketch.registers() == clone.registers()
        else:
            assert sketch.bitmaps() == clone.bitmaps()

    def test_record_rejects_bad_vector(self, sketch_cls):
        sketch = sketch_cls(m=16)
        with pytest.raises(ValueError):
            sketch.record(16, 0)
        with pytest.raises(ValueError):
            sketch.record(-1, 0)
