"""Tests for estimator constants."""

import math

import pytest

from repro.sketches.constants import (
    PCSA_PHI,
    SLL_THETA0,
    pcsa_bias_factor,
    sll_alpha_tilde,
    sll_truncated_count,
)


class TestPCSAConstants:
    def test_phi_value(self):
        assert PCSA_PHI == pytest.approx(0.77351)

    def test_bias_factor_shrinks_with_m(self):
        assert pcsa_bias_factor(1) == pytest.approx(1.31)
        assert pcsa_bias_factor(64) == pytest.approx(1 + 0.31 / 64)
        assert pcsa_bias_factor(10**6) == pytest.approx(1.0, abs=1e-5)

    def test_bias_factor_rejects_bad_m(self):
        with pytest.raises(ValueError):
            pcsa_bias_factor(0)


class TestSLLConstants:
    def test_theta0(self):
        assert SLL_THETA0 == pytest.approx(0.7)

    def test_truncated_count(self):
        assert sll_truncated_count(512) == 358
        assert sll_truncated_count(1) == 1
        assert sll_truncated_count(10) == 7

    def test_truncated_count_rejects_bad_m(self):
        with pytest.raises(ValueError):
            sll_truncated_count(0)

    def test_alpha_tilde_table_entries(self):
        assert sll_alpha_tilde(512) == pytest.approx(1.0954, rel=1e-3)
        assert sll_alpha_tilde(128) == pytest.approx(1.1034, rel=1e-3)

    def test_alpha_tilde_interpolation_between_powers(self):
        lower, upper = sll_alpha_tilde(256), sll_alpha_tilde(512)
        mid = sll_alpha_tilde(384)
        assert min(lower, upper) <= mid <= max(lower, upper)

    def test_alpha_tilde_beyond_table_uses_asymptote(self):
        assert sll_alpha_tilde(1 << 20) == pytest.approx(1.0915, rel=1e-3)

    def test_alpha_tilde_stable_for_large_m(self):
        # The converged region should be flat to within ~1%.
        values = [sll_alpha_tilde(1 << c) for c in range(8, 15)]
        assert max(values) / min(values) < 1.01

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            sll_alpha_tilde(0)


class TestCrossEstimatorSanity:
    def test_all_constants_finite(self):
        for m in (16, 64, 512, 4096):
            for value in (pcsa_bias_factor(m), sll_alpha_tilde(m)):
                assert math.isfinite(value)
