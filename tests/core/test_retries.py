"""Tests for the eq. 5 / eq. 6 retry model (paper section 4.1)."""

import pytest

from repro.core.retries import (
    lim_for_interval,
    lim_with_replication,
    prob_all_probes_empty,
    success_probability,
)
from repro.errors import ConfigurationError


class TestEq5:
    def test_zero_probes(self):
        assert prob_all_probes_empty(100, 50, 0) == 1.0

    def test_exhaustive_probes(self):
        # Probing every bin must find something when items exist.
        assert prob_all_probes_empty(100, 50, 50) == 0.0

    def test_formula_value(self):
        # ((N - t)/N)^n with N=10, t=2, n=3 -> 0.8^3
        assert prob_all_probes_empty(3, 10, 2) == pytest.approx(0.512)

    def test_monotone_in_probes(self):
        values = [prob_all_probes_empty(20, 100, t) for t in range(0, 50, 5)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_monotone_in_items(self):
        sparse = prob_all_probes_empty(5, 100, 5)
        dense = prob_all_probes_empty(500, 100, 5)
        assert dense < sparse

    def test_no_items_never_found(self):
        assert prob_all_probes_empty(0, 100, 5) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            prob_all_probes_empty(10, 0, 1)
        with pytest.raises(ConfigurationError):
            prob_all_probes_empty(-1, 10, 1)
        with pytest.raises(ConfigurationError):
            prob_all_probes_empty(10, 10, -1)


class TestLim:
    def test_lim_achieves_target(self):
        for n_items, n_bins in [(50, 100), (200, 100), (10, 1000)]:
            lim = lim_for_interval(0.99, n_items, n_bins)
            assert success_probability(n_items, n_bins, lim) >= 0.99

    def test_lim_is_tight(self):
        lim = lim_for_interval(0.99, 50, 100)
        if lim > 1:
            assert success_probability(50, 100, lim - 1) < 0.99

    def test_paper_default_guarantee(self):
        """lim=5 suffices for p >= 0.99 whenever items >= bins (sect 4.1)."""
        for n_bins in (8, 64, 512, 4096):
            assert lim_for_interval(0.99, n_bins, n_bins) <= 5

    def test_lim_grows_when_items_sparse(self):
        dense = lim_for_interval(0.99, 1000, 100)
        sparse = lim_for_interval(0.99, 10, 100)
        assert sparse > dense

    def test_lim_bounded_by_bins(self):
        assert lim_for_interval(0.999999, 1, 10) <= 10

    def test_lim_with_no_items_is_exhaustive(self):
        assert lim_for_interval(0.99, 0, 64) == 64

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            lim_for_interval(0.0, 10, 10)
        with pytest.raises(ConfigurationError):
            lim_for_interval(1.0, 10, 10)


class TestEq6Extensions:
    def test_bitmaps_dilute_items(self):
        # Items split over m bitmaps: the probe budget must grow.
        base = lim_with_replication(0.99, 1000, 100, m=1, replication=1)
        split = lim_with_replication(0.99, 1000, 100, m=64, replication=1)
        assert split > base
        assert base == lim_for_interval(0.99, 1000, 100)

    def test_replication_restores_budget(self):
        unreplicated = lim_with_replication(0.99, 1000, 100, m=64, replication=1)
        replicated = lim_with_replication(0.99, 1000, 100, m=64, replication=8)
        assert replicated <= unreplicated
        assert replicated == lim_with_replication(
            0.99, 8 * 1000, 100, m=64, replication=1
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            lim_with_replication(0.99, 10, 10, m=0, replication=1)
        with pytest.raises(ConfigurationError):
            lim_with_replication(0.99, 10, 10, m=1, replication=0)


class TestSuccessProbability:
    def test_complementarity(self):
        assert success_probability(50, 100, 5) == pytest.approx(
            1 - prob_all_probes_empty(50, 100, 5)
        )

    def test_lim_beyond_bins_clamped(self):
        assert success_probability(10, 5, 100) == 1.0


from hypothesis import given, settings
from hypothesis import strategies as st


class TestRetryModelProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        n_items=st.floats(min_value=0.1, max_value=1e6),
        n_bins=st.floats(min_value=1, max_value=1e5),
        p=st.floats(min_value=0.01, max_value=0.999),
    )
    def test_lim_always_achieves_target(self, n_items, n_bins, p):
        lim = lim_for_interval(p, n_items, n_bins)
        assert 1 <= lim <= int(n_bins) + 1
        assert success_probability(n_items, n_bins, lim) >= p - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        n_items=st.floats(min_value=1, max_value=1e5),
        n_bins=st.floats(min_value=2, max_value=1e4),
        t=st.integers(min_value=0, max_value=50),
    )
    def test_probability_is_a_probability(self, n_items, n_bins, t):
        value = prob_all_probes_empty(n_items, n_bins, t)
        assert 0.0 <= value <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        n_items=st.floats(min_value=1, max_value=1e5),
        n_bins=st.floats(min_value=2, max_value=1e4),
        m=st.sampled_from([1, 4, 64, 1024]),
        r=st.integers(min_value=1, max_value=16),
    )
    def test_replication_never_raises_budget(self, n_items, n_bins, m, r):
        base = lim_with_replication(0.95, n_items, n_bins, m=m, replication=1)
        replicated = lim_with_replication(0.95, n_items, n_bins, m=m, replication=r)
        assert replicated <= base
