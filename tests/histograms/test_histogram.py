"""Tests for histograms and selectivity estimation."""

import numpy as np
import pytest

from repro.errors import HistogramError
from repro.histograms.buckets import BucketSpec
from repro.histograms.histogram import Histogram

SPEC = BucketSpec.equi_width(1, 100, 10)


class TestConstruction:
    def test_exact_counts(self):
        values = np.array([1, 5, 10, 11, 50, 100])
        histogram = Histogram.exact(SPEC, values)
        assert histogram.counts[0] == 3  # 1, 5, 10
        assert histogram.counts[1] == 1  # 11
        assert histogram.counts[4] == 1  # 50
        assert histogram.counts[9] == 1  # 100
        assert histogram.total == 6

    def test_from_counts(self):
        histogram = Histogram.from_counts(SPEC, [1.0] * 10)
        assert histogram.total == 10

    def test_count_length_checked(self):
        with pytest.raises(HistogramError):
            Histogram.from_counts(SPEC, [1.0] * 9)

    def test_negative_counts_rejected(self):
        with pytest.raises(HistogramError):
            Histogram.from_counts(SPEC, [-1.0] + [0.0] * 9)


class TestRangeEstimation:
    def test_whole_domain(self):
        histogram = Histogram.from_counts(SPEC, [10.0] * 10)
        assert histogram.estimate_range(1, 101) == pytest.approx(100.0)

    def test_full_bucket(self):
        histogram = Histogram.from_counts(SPEC, [10.0] * 10)
        assert histogram.estimate_range(1, 11) == pytest.approx(10.0)

    def test_partial_bucket_interpolates(self):
        histogram = Histogram.from_counts(SPEC, [10.0] * 10)
        assert histogram.estimate_range(1, 6) == pytest.approx(5.0)

    def test_cross_bucket(self):
        histogram = Histogram.from_counts(SPEC, [10.0, 20.0] + [0.0] * 8)
        assert histogram.estimate_range(6, 16) == pytest.approx(5.0 + 10.0)

    def test_empty_and_inverted_ranges(self):
        histogram = Histogram.from_counts(SPEC, [10.0] * 10)
        assert histogram.estimate_range(50, 50) == 0.0
        assert histogram.estimate_range(60, 50) == 0.0

    def test_out_of_domain_clipped(self):
        histogram = Histogram.from_counts(SPEC, [10.0] * 10)
        assert histogram.estimate_range(-100, 1000) == pytest.approx(100.0)

    def test_selectivity_normalized(self):
        histogram = Histogram.from_counts(SPEC, [10.0] * 10)
        assert histogram.selectivity_range(1, 51) == pytest.approx(0.5)

    def test_selectivity_empty_histogram(self):
        histogram = Histogram.from_counts(SPEC, [0.0] * 10)
        assert histogram.selectivity_range(1, 51) == 0.0

    def test_exact_range_agrees_on_uniform_data(self):
        values = np.arange(1, 101)
        histogram = Histogram.exact(SPEC, values)
        assert histogram.estimate_range(21, 41) == pytest.approx(20.0)


class TestErrorMetrics:
    def test_identical_histograms_zero_error(self):
        histogram = Histogram.from_counts(SPEC, [7.0] * 10)
        assert histogram.mean_cell_error(histogram) == 0.0

    def test_per_bucket_errors(self):
        truth = Histogram.from_counts(SPEC, [10.0] * 10)
        mine = Histogram.from_counts(SPEC, [11.0] * 5 + [9.0] * 5)
        errors = mine.per_bucket_errors(truth)
        assert errors == pytest.approx([0.1] * 10)
        assert mine.mean_cell_error(truth) == pytest.approx(0.1)

    def test_empty_reference_buckets_skipped(self):
        truth = Histogram.from_counts(SPEC, [10.0] * 5 + [0.0] * 5)
        mine = Histogram.from_counts(SPEC, [10.0] * 5 + [99.0] * 5)
        assert mine.mean_cell_error(truth) == 0.0

    def test_mismatched_specs_rejected(self):
        other = BucketSpec.equi_width(1, 100, 5)
        with pytest.raises(HistogramError):
            Histogram.from_counts(SPEC, [1.0] * 10).per_bucket_errors(
                Histogram.from_counts(other, [1.0] * 5)
            )
