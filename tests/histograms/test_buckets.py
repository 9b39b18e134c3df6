"""Tests for bucket specifications."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import HistogramError
from repro.histograms.buckets import BucketSpec


class TestEquiWidth:
    def test_paper_partitioning(self):
        # D = [1, 100], I = 10: S = 10, B_i = [1 + 10i, 1 + 10(i+1))
        spec = BucketSpec.equi_width(1, 100, 10)
        assert spec.n_buckets == 10
        assert spec.bucket_range(0) == (1.0, 11.0)
        assert spec.bucket_range(9) == (91.0, 101.0)

    def test_widths_equal(self):
        spec = BucketSpec.equi_width(1, 1000, 7)
        widths = [spec.bucket_width(i) for i in range(7)]
        assert max(widths) == pytest.approx(min(widths))

    def test_single_bucket(self):
        spec = BucketSpec.equi_width(5, 10, 1)
        assert spec.bucket_range(0) == (5.0, 11.0)

    def test_invalid(self):
        with pytest.raises(HistogramError):
            BucketSpec.equi_width(1, 100, 0)
        with pytest.raises(HistogramError):
            BucketSpec.equi_width(100, 1, 5)


class TestCustomBoundaries:
    def test_non_equi_width(self):
        spec = BucketSpec.from_boundaries([0, 1, 10, 100])
        assert spec.n_buckets == 3
        assert spec.bucket_width(0) == 1
        assert spec.bucket_width(2) == 90

    def test_rejects_non_ascending(self):
        with pytest.raises(HistogramError):
            BucketSpec.from_boundaries([0, 5, 5, 10])
        with pytest.raises(HistogramError):
            BucketSpec.from_boundaries([10])


class TestBucketIndex:
    def test_boundaries_belong_to_right_bucket(self):
        spec = BucketSpec.equi_width(1, 100, 10)
        assert spec.bucket_index(1) == 0
        assert spec.bucket_index(10.999) == 0
        assert spec.bucket_index(11) == 1
        assert spec.bucket_index(100) == 9

    def test_out_of_domain_rejected(self):
        spec = BucketSpec.equi_width(1, 100, 10)
        with pytest.raises(HistogramError):
            spec.bucket_index(0)
        with pytest.raises(HistogramError):
            spec.bucket_index(101)

    def test_vectorized_matches_scalar(self):
        spec = BucketSpec.equi_width(1, 1000, 13)
        values = np.arange(1, 1001)
        vectorized = spec.bucket_indices(values)
        for value, index in zip(values[::37], vectorized[::37]):
            assert spec.bucket_index(value) == index

    def test_vectorized_rejects_out_of_domain(self):
        spec = BucketSpec.equi_width(1, 100, 10)
        with pytest.raises(HistogramError):
            spec.bucket_indices(np.array([0, 5]))

    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=10_000),
    )
    def test_every_value_has_exactly_one_bucket(self, n_buckets, value):
        spec = BucketSpec.equi_width(1, 10_000, n_buckets)
        index = spec.bucket_index(value)
        lo, hi = spec.bucket_range(index)
        assert lo <= value < hi


class TestRanges:
    def test_all_ranges_cover_domain(self):
        spec = BucketSpec.equi_width(1, 997, 13)
        ranges = [spec.bucket_range(i) for i in range(spec.n_buckets)]
        assert ranges[0][0] == 1.0
        assert ranges[-1][1] == 998.0
        for (a_lo, a_hi), (b_lo, b_hi) in zip(ranges, ranges[1:]):
            assert a_hi == b_lo

    def test_bucket_range_validation(self):
        spec = BucketSpec.equi_width(1, 100, 10)
        with pytest.raises(HistogramError):
            spec.bucket_range(10)
