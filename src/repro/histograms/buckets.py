"""Histogram bucket specifications (paper section 4.3).

The paper builds equi-width histograms: the attribute domain
``[amin, amax]`` is split into ``I`` equal intervals
``B_i = [amin + i*S, amin + (i+1)*S)`` with ``S = (amax - amin + 1) / I``.
It also notes that any bucketing with *constant, known-in-advance*
boundaries works; :meth:`BucketSpec.from_boundaries` provides that
generalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.errors import HistogramError

__all__ = ["BucketSpec"]


@dataclass(frozen=True)
class BucketSpec:
    """A fixed partitioning of an integer attribute domain.

    ``boundaries`` has ``n_buckets + 1`` ascending entries; bucket ``i``
    covers ``[boundaries[i], boundaries[i+1])``, except the last bucket,
    which is closed on the right so ``amax`` belongs to it.
    """

    boundaries: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.boundaries) < 2:
            raise HistogramError("need at least two boundaries (one bucket)")
        if any(a >= b for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise HistogramError("boundaries must be strictly ascending")

    # ------------------------------------------------------------------
    # Constructors.
    # ------------------------------------------------------------------
    @classmethod
    def equi_width(cls, amin: int, amax: int, n_buckets: int) -> "BucketSpec":
        """The paper's equi-width partitioning of ``[amin, amax]``."""
        if n_buckets < 1:
            raise HistogramError(f"n_buckets must be >= 1, got {n_buckets}")
        if amax < amin:
            raise HistogramError(f"empty domain [{amin}, {amax}]")
        width = (amax - amin + 1) / n_buckets
        edges = tuple(amin + i * width for i in range(n_buckets)) + (amax + 1.0,)
        return cls(boundaries=edges)

    @classmethod
    def from_boundaries(cls, boundaries: Sequence[float]) -> "BucketSpec":
        """Arbitrary constant-boundary buckets (non-equi-width)."""
        return cls(boundaries=tuple(float(b) for b in boundaries))

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    @property
    def n_buckets(self) -> int:
        """Number of buckets."""
        return len(self.boundaries) - 1

    @property
    def amin(self) -> float:
        """Inclusive lower end of the covered domain."""
        return self.boundaries[0]

    @property
    def amax(self) -> float:
        """Exclusive upper end of the covered domain."""
        return self.boundaries[-1]

    def bucket_range(self, index: int) -> Tuple[float, float]:
        """Half-open value range of bucket ``index``."""
        if not 0 <= index < self.n_buckets:
            raise HistogramError(f"bucket {index} out of range [0, {self.n_buckets})")
        return self.boundaries[index], self.boundaries[index + 1]

    def bucket_width(self, index: int) -> float:
        """Width of bucket ``index``."""
        lo, hi = self.bucket_range(index)
        return hi - lo

    def bucket_index(self, value: float) -> int:
        """Bucket containing ``value``; raises when outside the domain."""
        if not self.amin <= value < self.amax:
            raise HistogramError(
                f"value {value} outside domain [{self.amin}, {self.amax})"
            )
        return int(np.searchsorted(self.boundaries, value, side="right")) - 1

    def bucket_indices(self, values: npt.ArrayLike) -> npt.NDArray[np.intp]:
        """Vectorized :meth:`bucket_index` (values must be in-domain)."""
        values = np.asarray(values)
        if values.size and (values.min() < self.amin or values.max() >= self.amax):
            raise HistogramError("some values fall outside the bucketed domain")
        return np.searchsorted(self.boundaries, values, side="right") - 1
