"""Statistical and structural tests for the 64-bit mixers."""

from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from repro.hashing.bits import rho
from repro.hashing.mixers import mix_with_seed, splitmix64

U64 = st.integers(min_value=0, max_value=2**64 - 1)


class TestRange:
    @given(U64)
    def test_splitmix64_in_range(self, x):
        assert 0 <= splitmix64(x) < 2**64

    @given(U64, U64)
    def test_mix_with_seed_in_range(self, x, seed):
        assert 0 <= mix_with_seed(x, seed) < 2**64


class TestBijectivity:
    def test_splitmix64_injective_on_sample(self):
        outputs = {splitmix64(i) for i in range(100_000)}
        assert len(outputs) == 100_000


class TestUniformity:
    def test_bit_balance(self):
        """Each output bit should be ~50% ones over sequential inputs."""
        n = 20_000
        counts = [0] * 64
        for i in range(n):
            y = splitmix64(i)
            for b in range(64):
                counts[b] += (y >> b) & 1
        for b, c in enumerate(counts):
            assert abs(c / n - 0.5) < 0.02, f"bit {b} biased: {c / n:.3f}"

    def test_rho_geometric(self):
        """P(rho == k) ~ 2^-(k+1): the invariant hash sketches rely on."""
        n = 50_000
        hist = Counter(rho(splitmix64(i), 64) for i in range(n))
        for k in range(8):
            expected = n * 2 ** -(k + 1)
            assert abs(hist[k] - expected) < 5 * (expected**0.5) + 20

    def test_seeds_decorrelate(self):
        a = [mix_with_seed(i, 1) for i in range(2_000)]
        b = [mix_with_seed(i, 2) for i in range(2_000)]
        matches = sum(1 for x, y in zip(a, b) if x == y)
        assert matches == 0

    def test_adjacent_seeds_avalanche(self):
        """Hamming distance between adjacent-seed outputs should be ~32."""
        total = 0
        n = 2_000
        for i in range(n):
            total += bin(mix_with_seed(i, 7) ^ mix_with_seed(i, 8)).count("1")
        assert 28 < total / n < 36
