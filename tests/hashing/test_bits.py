"""Unit tests for bit-level utilities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashing.bits import bit, lsb, mask, rank, rho


class TestMask:
    def test_zero_width(self):
        assert mask(0) == 0

    def test_small_widths(self):
        assert mask(1) == 0b1
        assert mask(4) == 0b1111
        assert mask(8) == 0xFF

    def test_large_width(self):
        assert mask(64) == 2**64 - 1

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            mask(-1)


class TestBit:
    def test_low_bit(self):
        assert bit(0b1011, 0) == 1
        assert bit(0b1010, 0) == 0

    def test_high_bit(self):
        assert bit(1 << 63, 63) == 1
        assert bit(1 << 63, 62) == 0

    def test_beyond_width_is_zero(self):
        assert bit(0b111, 10) == 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bit(5, -1)


class TestRho:
    def test_paper_convention_zero(self):
        # rho(0) == L, the bitmap length (section 2.2.1).
        assert rho(0, 24) == 24
        assert rho(0, 64) == 64

    def test_odd_numbers(self):
        for y in (1, 3, 5, 7, 1023):
            assert rho(y, 16) == 0

    def test_powers_of_two(self):
        for k in range(16):
            assert rho(1 << k, 16) == k

    def test_truncation_to_width(self):
        # High bits beyond the width are ignored: 2^20 truncated to 16 bits
        # is zero, so rho must hit the all-zero convention.
        assert rho(1 << 20, 16) == 16

    def test_mixed_bits(self):
        assert rho(0b101000, 8) == 3

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            rho(1, -2)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_naive_scan(self, y):
        width = 32
        expected = width
        for k in range(width):
            if (y >> k) & 1:
                expected = k
                break
        assert rho(y, width) == expected

    @given(st.integers(min_value=1, max_value=2**24 - 1))
    def test_geometric_distribution_support(self, y):
        # rho of a nonzero 24-bit value is always in [0, 24).
        assert 0 <= rho(y, 24) < 24


class TestRank:
    def test_rank_is_rho_plus_one(self):
        assert rank(0b100, 8) == 3
        assert rank(1, 8) == 1

    def test_rank_of_zero(self):
        assert rank(0, 8) == 9


class TestLsb:
    def test_truncates(self):
        assert lsb(0xDEADBEEF, 8) == 0xEF
        assert lsb(0xDEADBEEF, 16) == 0xBEEF

    def test_zero_width(self):
        assert lsb(12345, 0) == 0

    @given(st.integers(min_value=0), st.integers(min_value=0, max_value=64))
    def test_result_fits_width(self, y, width):
        assert lsb(y, width) < max(1, 1 << width) or width == 0
