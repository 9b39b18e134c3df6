"""Histograms and selectivity estimation.

A :class:`Histogram` pairs a :class:`~repro.histograms.buckets.BucketSpec`
with per-bucket tuple counts (exact or DHS-estimated) and answers the
estimates a query optimizer needs: range and equality selectivities under
the classic uniform-within-bucket assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
import numpy.typing as npt

from repro.errors import HistogramError
from repro.histograms.buckets import BucketSpec

__all__ = ["Histogram"]


@dataclass
class Histogram:
    """Per-bucket counts over a fixed bucket spec."""

    spec: BucketSpec
    counts: List[float]

    def __post_init__(self) -> None:
        if len(self.counts) != self.spec.n_buckets:
            raise HistogramError(
                f"{len(self.counts)} counts for {self.spec.n_buckets} buckets"
            )
        if any(c < 0 for c in self.counts):
            raise HistogramError("bucket counts must be non-negative")

    # ------------------------------------------------------------------
    # Constructors.
    # ------------------------------------------------------------------
    @classmethod
    def exact(cls, spec: BucketSpec, values: npt.ArrayLike) -> "Histogram":
        """Ground-truth histogram from materialized values."""
        indices = spec.bucket_indices(np.asarray(values))
        counts = np.bincount(indices, minlength=spec.n_buckets).astype(float)
        return cls(spec=spec, counts=counts.tolist())

    # ------------------------------------------------------------------
    # Aggregates.
    # ------------------------------------------------------------------
    @property
    def total(self) -> float:
        """Total tuple count represented by the histogram."""
        return float(sum(self.counts))

    # ------------------------------------------------------------------
    # Selectivity estimation (uniform-within-bucket assumption).
    # ------------------------------------------------------------------
    def estimate_range(self, lo: float, hi: float) -> float:
        """Estimated tuples with value in ``[lo, hi)``."""
        if hi <= lo:
            return 0.0
        lo = max(lo, self.spec.amin)
        hi = min(hi, self.spec.amax)
        if hi <= lo:
            return 0.0
        total = 0.0
        for index in range(self.spec.n_buckets):
            b_lo, b_hi = self.spec.bucket_range(index)
            overlap = min(hi, b_hi) - max(lo, b_lo)
            if overlap > 0:
                total += self.counts[index] * overlap / (b_hi - b_lo)
        return total

    def selectivity_range(self, lo: float, hi: float) -> float:
        """Fraction of tuples in ``[lo, hi)`` (0 when histogram empty)."""
        if self.total == 0:
            return 0.0
        return self.estimate_range(lo, hi) / self.total

    def scale(self, factor: float) -> "Histogram":
        """Uniformly scale every bucket (attribute-value independence)."""
        if factor < 0:
            raise HistogramError(f"scale factor must be >= 0, got {factor}")
        return Histogram.from_counts(self.spec, [c * factor for c in self.counts])

    def restrict(self, lo: float, hi: float) -> "Histogram":
        """The histogram of tuples with value in ``[lo, hi)``.

        Bucket counts are scaled by their overlap with the range
        (uniform-within-bucket); the spec is unchanged so restricted
        histograms stay join-compatible with unrestricted ones.
        """
        counts = []
        for index in range(self.spec.n_buckets):
            b_lo, b_hi = self.spec.bucket_range(index)
            overlap = min(hi, b_hi) - max(lo, b_lo)
            if overlap <= 0:
                counts.append(0.0)
            else:
                counts.append(self.counts[index] * overlap / (b_hi - b_lo))
        return Histogram.from_counts(self.spec, counts)

    # ------------------------------------------------------------------
    # Comparison helpers (accuracy experiments).
    # ------------------------------------------------------------------
    def per_bucket_errors(self, reference: "Histogram") -> List[float]:
        """Relative per-cell error against a reference histogram.

        Buckets empty in the reference are skipped (relative error is
        undefined there), matching the paper's per-cell error metric.
        """
        if reference.spec != self.spec:
            raise HistogramError("histograms use different bucket specs")
        errors = []
        for mine, truth in zip(self.counts, reference.counts):
            if truth > 0:
                errors.append(abs(mine - truth) / truth)
        return errors

    def mean_cell_error(self, reference: "Histogram") -> float:
        """Mean relative per-cell error against the reference."""
        errors = self.per_bucket_errors(reference)
        if not errors:
            return 0.0
        return sum(errors) / len(errors)

    @classmethod
    def from_counts(cls, spec: BucketSpec, counts: Sequence[float]) -> "Histogram":
        """Histogram from externally produced counts (e.g. DHS estimates)."""
        return cls(spec=spec, counts=[float(c) for c in counts])
