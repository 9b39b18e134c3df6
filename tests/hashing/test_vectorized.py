"""The vectorized hash path must agree with the scalar path bit-for-bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.family import MixerHash
from repro.hashing.mixers import mix_with_seed, splitmix64
from repro.hashing.vectorized import (
    mix_with_seed_np,
    observations_np,
    popcount64,
    splitmix64_np,
)
from repro.sketches.base import HashSketch, split_key
from repro.sketches.loglog import SuperLogLogSketch


class TestMixerAgreement:
    def test_splitmix_matches_scalar(self):
        xs = np.arange(0, 10_000, dtype=np.uint64)
        vectorized = splitmix64_np(xs)
        for i in (0, 1, 17, 4095, 9999):
            assert int(vectorized[i]) == splitmix64(int(xs[i]))

    def test_splitmix_high_values(self):
        xs = np.array([2**64 - 1, 2**63, 2**63 - 1], dtype=np.uint64)
        vectorized = splitmix64_np(xs)
        for i, x in enumerate((2**64 - 1, 2**63, 2**63 - 1)):
            assert int(vectorized[i]) == splitmix64(x)

    @given(st.integers(min_value=0, max_value=2**63 - 1), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_mix_with_seed_matches_scalar(self, x, seed):
        vectorized = mix_with_seed_np(np.array([x], dtype=np.uint64), seed)
        assert int(vectorized[0]) == mix_with_seed(x, seed)


class TestObservations:
    @pytest.mark.parametrize("m,key_bits,seed", [(1, 24, 0), (16, 24, 3), (512, 24, 7), (64, 32, 1)])
    def test_matches_scalar_split(self, m, key_bits, seed):
        ids = np.arange(0, 3000, dtype=np.int64)
        vectors, positions = observations_np(ids, m, key_bits, seed=seed)
        family = MixerHash(bits=64, seed=seed)
        position_bits = key_bits - (m.bit_length() - 1)
        for i in range(0, 3000, 97):
            vector, position = split_key(family(int(ids[i])), m, key_bits)
            assert vectors[i] == vector
            assert positions[i] == min(position, position_bits - 1)

    def test_matches_sketch_state(self):
        """Feeding the vectorized observations reproduces add() exactly."""
        ids = np.arange(0, 5000, dtype=np.int64)
        direct = SuperLogLogSketch(m=32, hash_family=MixerHash(bits=64, seed=5))
        direct.add_all(int(i) for i in ids)
        via_np = SuperLogLogSketch(m=32, hash_family=MixerHash(bits=64, seed=5))
        vectors, positions = observations_np(ids, 32, 64, seed=5)
        for vector, position in zip(vectors.tolist(), positions.tolist()):
            via_np.record(vector, position)
        assert via_np.registers() == direct.registers()

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError):
            observations_np(np.array([-1]), 16, 24)

    @pytest.mark.parametrize("m", [0, -4, 3, 6, 12, 100, 1000])
    def test_rejects_non_power_of_two_m(self, m):
        """Same contract as the scalar HashSketch: m must be 2^c > 0."""
        with pytest.raises(ValueError, match="power of two"):
            observations_np(np.arange(10, dtype=np.int64), m, 24)

    @pytest.mark.parametrize("m,key_bits", [(16, 4), (16, 3), (512, 9), (2, 1)])
    def test_rejects_key_bits_not_exceeding_log2_m(self, m, key_bits):
        with pytest.raises(ValueError, match="key_bits"):
            observations_np(np.arange(10, dtype=np.int64), m, key_bits)

    def test_positions_clamped(self):
        ids = np.arange(0, 100_000, dtype=np.int64)
        _, positions = observations_np(ids, 16, 16, seed=0)
        assert positions.max() <= 16 - 4 - 1
        assert positions.min() >= 0


class TestPopcount:
    EDGE_VALUES = [0, 1, 2, 3, 2**32 - 1, 2**63, 2**64 - 1, 0x5555555555555555]

    def _assert_exact(self, values):
        xs = np.array(values, dtype=np.uint64)
        got = popcount64(xs)
        assert got.dtype == np.int64
        for x, count in zip(values, got.tolist()):
            assert count == int(x).bit_count()

    def test_matches_int_bit_count(self):
        rng = np.random.default_rng(11)
        values = rng.integers(0, 2**63, size=5000, dtype=np.int64).astype(np.uint64)
        self._assert_exact([int(v) for v in values] + self.EDGE_VALUES)

    def test_swar_fallback_exact(self, monkeypatch):
        """Force the numpy<2.0 SWAR branch and re-check exactness."""
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        assert not hasattr(np, "bitwise_count")
        rng = np.random.default_rng(12)
        values = [int(v) for v in rng.integers(0, 2**64, size=2000, dtype=np.uint64)]
        self._assert_exact(values + self.EDGE_VALUES)

    def test_swar_fallback_rho_path(self, monkeypatch):
        """observations_np stays scalar-exact without np.bitwise_count."""
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        ids = np.arange(0, 2000, dtype=np.int64)
        vectors, positions = observations_np(ids, 64, 24, seed=9)
        family = MixerHash(bits=64, seed=9)
        position_bits = 24 - 6
        for i in range(0, 2000, 53):
            vector, position = split_key(family(int(ids[i])), 64, 24)
            assert vectors[i] == vector
            assert positions[i] == min(position, position_bits - 1)
