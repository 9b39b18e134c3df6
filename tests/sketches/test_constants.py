"""Tests for estimator constants."""

import math

import pytest

from repro.sketches.constants import (
    PCSA_PHI,
    SLL_THETA0,
    hll_alpha,
    loglog_alpha,
    pcsa_bias_factor,
    sll_alpha_tilde,
    sll_truncated_count,
)

#: ``loglog_alpha(2**k)`` for k = 1 … 20, evaluated with scipy 1.17.1's
#: ``scipy.special.gamma`` before the dependency was dropped.
SCIPY_LOGLOG_ALPHA = [
    0.2228396300270748,
    0.3120159835567853,
    0.35489069050098704,
    0.37603269740506934,
    0.3865412489235148,
    0.3917811187985748,
    0.3943975918946954,
    0.39570497978711844,
    0.39635846363192967,
    0.3966851532573614,
    0.39684848506672454,
    0.39693014861661824,
    0.39697097472101156,
    0.3969914030281065,
    0.39700164580278585,
    0.39700656845455584,
    0.397008393343095,
    0.3970085791639081,
    0.3969941096013463,
    0.396981783860064,
]


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


class TestLogLogAlpha:
    def test_asymptotic_value(self):
        # DF03: alpha_m -> ~0.39701 as m -> infinity.
        assert loglog_alpha(2**16) == pytest.approx(0.39701, rel=1e-3)

    def test_monotone_increasing_in_m(self):
        # alpha_m climbs toward the 0.39701 asymptote from below.
        values = [loglog_alpha(1 << c) for c in range(2, 14)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 0.39701 for v in values)

    def test_known_m16(self):
        # Closed form evaluated independently: alpha_16 = 0.376033.
        assert loglog_alpha(16) == pytest.approx(0.376033, rel=1e-4)

    def test_positive_for_all_m(self):
        for m in (2, 3, 5, 100, 4096):
            assert loglog_alpha(m) > 0

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            loglog_alpha(0)

    @pytest.mark.parametrize("k, expected", enumerate(SCIPY_LOGLOG_ALPHA, start=1))
    def test_matches_scipy_gamma(self, k, expected):
        """``math.gamma`` replaced ``scipy.special.gamma``; the closed form
        multiplies Gamma's last-ulp error by ``m``, hence ``rel=1e-9``."""
        assert loglog_alpha(2**k) == pytest.approx(expected, rel=1e-9)


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


class TestHLLAlpha:
    def test_standard_values(self):
        assert hll_alpha(16) == pytest.approx(0.673)
        assert hll_alpha(32) == pytest.approx(0.697)
        assert hll_alpha(64) == pytest.approx(0.709)
        assert hll_alpha(128) == pytest.approx(0.7213 / (1 + 1.079 / 128))

    def test_asymptote(self):
        assert hll_alpha(1 << 20) == pytest.approx(0.7213, rel=1e-3)

    def test_monotone_above_64(self):
        assert hll_alpha(128) < hll_alpha(256) < hll_alpha(1024) < 0.7213


class TestCrossEstimatorSanity:
    def test_sll_alpha_larger_than_loglog(self):
        # Truncation discards the largest registers, so the correction
        # constant must be above the untruncated alpha.
        for c in range(5, 13):
            assert sll_alpha_tilde(1 << c) > loglog_alpha(1 << c)

    def test_all_constants_finite(self):
        for m in (16, 64, 512, 4096):
            for value in (loglog_alpha(m), sll_alpha_tilde(m), hll_alpha(m)):
                assert math.isfinite(value)
