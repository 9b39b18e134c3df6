"""PCSA — Probabilistic Counting with Stochastic Averaging (FM85).

Each of the ``m`` buckets keeps a full bitmap; bit ``r`` of bucket ``j`` is
set when some item hashed to ``(j, r)``.  The per-bucket observable is
``R_j``, the position of the *leftmost 0-bit*, and the estimate is the
paper's eq. 4::

    E(n) = (1 / 0.77351) * m * 2^(mean R)

optionally divided by the first-order bias factor ``1 + 0.31/m``.
"""

from __future__ import annotations

from typing import List

from repro.errors import EstimationError
from repro.hashing.bits import mask, rho
from repro.hashing.family import HashFamily
from repro.sketches.base import HashSketch
from repro.sketches.estimators import pcsa_estimate

__all__ = ["PCSASketch"]


class PCSASketch(HashSketch):
    """Flajolet–Martin PCSA sketch with ``m`` bitmaps.

    Relative standard error ≈ ``0.78 / sqrt(m)``; memory is
    ``m * position_bits`` bits (``log2(n_max)`` bits per bucket, the
    difference from LogLog the paper highlights in section 2.2.2).
    """

    name = "pcsa"

    def __init__(
        self,
        m: int = 64,
        key_bits: int = 64,
        hash_family: HashFamily | None = None,
        bias_correction: bool = True,
    ) -> None:
        super().__init__(m=m, key_bits=key_bits, hash_family=hash_family)
        self.bias_correction = bias_correction
        self._bitmaps: List[int] = [0] * self.m
        self._full_mask = mask(self.position_bits)

    # ------------------------------------------------------------------
    # HashSketch state hooks.
    # ------------------------------------------------------------------
    def record(self, vector: int, position: int) -> None:
        if not 0 <= vector < self.m:
            raise ValueError(f"vector {vector} out of range [0, {self.m})")
        if position >= self.position_bits:
            # The all-zero suffix (rho == position_bits); FM85 bitmaps do
            # not extend past the usable width, so clamp to the top bit.
            position = self.position_bits - 1
        self._bitmaps[vector] |= 1 << position

    def record_mask(self, vectors: int, position: int) -> None:
        if vectors < 0 or vectors >> self.m:
            raise ValueError(f"vector mask {vectors:#x} out of range [0, 2^{self.m})")
        if position >= self.position_bits:
            position = self.position_bits - 1
        bit = 1 << position
        bitmaps = self._bitmaps
        while vectors:
            low = vectors & -vectors
            bitmaps[low.bit_length() - 1] |= bit
            vectors ^= low

    def is_empty(self) -> bool:
        return all(b == 0 for b in self._bitmaps)

    def _merge_state(self, other: HashSketch) -> None:
        assert isinstance(other, PCSASketch)
        self._bitmaps = [a | b for a, b in zip(self._bitmaps, other._bitmaps)]

    def _copy_empty(self) -> "PCSASketch":
        return PCSASketch(
            m=self.m,
            key_bits=self.key_bits,
            hash_family=self.hash_family,
            bias_correction=self.bias_correction,
        )

    # ------------------------------------------------------------------
    # Estimation.
    # ------------------------------------------------------------------
    def leftmost_zero(self, vector: int) -> int:
        """``R_j``: position of the leftmost 0-bit of bucket ``vector``."""
        complement = (~self._bitmaps[vector]) & self._full_mask
        return rho(complement, self.position_bits)

    def observables(self) -> List[int]:
        """The ``R`` vector over all buckets."""
        return [self.leftmost_zero(j) for j in range(self.m)]

    def estimate(self) -> float:
        if self.is_empty():
            return 0.0
        return pcsa_estimate(sum(self.observables()), self.m, self.bias_correction)

    @classmethod
    def expected_std_error(cls, m: int) -> float:
        """FM85: ``0.78 / sqrt(m)``."""
        if m < 1:
            raise EstimationError(f"m must be >= 1, got {m}")
        return 0.78 / m**0.5

    # ------------------------------------------------------------------
    # Introspection / serialization.
    # ------------------------------------------------------------------
    def bitmaps(self) -> List[int]:
        """A copy of the raw bucket bitmaps (bit ``r`` set ⇔ observed)."""
        return list(self._bitmaps)

    def bit(self, vector: int, position: int) -> bool:
        """Whether bit ``position`` of bucket ``vector`` is set."""
        return bool((self._bitmaps[vector] >> position) & 1)

    def to_bytes(self) -> bytes:
        """Serialize the bucket bitmaps (config travels out of band)."""
        width = (self.position_bits + 7) // 8
        return b"".join(b.to_bytes(width, "little") for b in self._bitmaps)

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        m: int,
        key_bits: int = 64,
        hash_family: HashFamily | None = None,
        bias_correction: bool = True,
    ) -> "PCSASketch":
        """Rebuild a sketch serialized by :meth:`to_bytes`."""
        sketch = cls(
            m=m,
            key_bits=key_bits,
            hash_family=hash_family,
            bias_correction=bias_correction,
        )
        width = (sketch.position_bits + 7) // 8
        if len(data) != width * m:
            raise ValueError(
                f"expected {width * m} bytes for m={m}, k={key_bits}; got {len(data)}"
            )
        bitmaps = [
            int.from_bytes(data[i * width : (i + 1) * width], "little") for i in range(m)
        ]
        if any(b >> sketch.position_bits for b in bitmaps):
            raise ValueError("bitmap has bits at or above position_bits")
        sketch._bitmaps = bitmaps
        return sketch
