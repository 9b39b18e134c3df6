"""Linear (probabilistic) counting — Whang, Vander-Zanden & Taylor 1990.

A plain bitmap estimator: hash each item to one of ``size`` bit positions
and estimate ``n = -size * ln(V)`` where ``V`` is the fraction of bits
still zero.  It shines exactly where LogLog-family sketches are weak —
small cardinalities — and is used as HyperLogLog's small-range correction.
Shipped as an extension beyond the paper's two estimators.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

from repro.errors import ConfigurationError, EstimationError, IncompatibleSketchError
from repro.hashing.family import HashFamily, default_hash_family

__all__ = ["LinearCounter", "linear_counting_estimate"]


def linear_counting_estimate(size: int, zero_bits: int) -> float:
    """``-size * ln(zero_bits / size)``; infinite when no bit is zero."""
    if size < 1:
        raise EstimationError(f"size must be >= 1, got {size}")
    if not 0 <= zero_bits <= size:
        raise EstimationError(f"zero_bits {zero_bits} out of range [0, {size}]")
    if zero_bits == 0:
        return math.inf
    return -size * math.log(zero_bits / size)


class LinearCounter:
    """Bitmap cardinality estimator with load-factor-limited accuracy."""

    name = "linear"

    def __init__(
        self,
        size: int = 1 << 14,
        hash_family: HashFamily | None = None,
    ) -> None:
        if size < 1:
            raise ConfigurationError(f"size must be >= 1, got {size}")
        self.size = size
        self.hash_family = hash_family or default_hash_family()
        self._bits = bytearray((size + 7) // 8)
        self._set_count = 0

    def add(self, item: Any) -> None:
        """Record one item (duplicate-insensitively)."""
        index = self.hash_family(item) % self.size
        byte, offset = divmod(index, 8)
        if not self._bits[byte] & (1 << offset):
            self._bits[byte] |= 1 << offset
            self._set_count += 1

    def add_all(self, items: Iterable[Any]) -> None:
        """Record every item of an iterable."""
        for item in items:
            self.add(item)

    def is_empty(self) -> bool:
        """True when no item has been recorded."""
        return self._set_count == 0

    def estimate(self) -> float:
        """Estimated distinct count; ``inf`` when the bitmap saturates."""
        return linear_counting_estimate(self.size, self.size - self._set_count)

    def merge(self, other: "LinearCounter") -> "LinearCounter":
        """In-place union with a compatible counter."""
        if self.size != other.size or self.hash_family != other.hash_family:
            raise IncompatibleSketchError("LinearCounter parameters differ")
        merged = bytearray(a | b for a, b in zip(self._bits, other._bits))
        self._bits = merged
        self._set_count = sum(bin(b).count("1") for b in merged)
        return self

    def copy(self) -> "LinearCounter":
        """Deep copy of this counter."""
        out = LinearCounter(size=self.size, hash_family=self.hash_family)
        out._bits = bytearray(self._bits)
        out._set_count = self._set_count
        return out

    def to_bytes(self) -> bytes:
        """Serialize the bitmap (config travels out of band)."""
        return bytes(self._bits)

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        size: int,
        hash_family: HashFamily | None = None,
    ) -> "LinearCounter":
        """Rebuild a counter serialized by :meth:`to_bytes`."""
        counter = cls(size=size, hash_family=hash_family)
        if len(data) != (size + 7) // 8:
            raise ValueError(
                f"expected {(size + 7) // 8} bytes for size={size}, got {len(data)}"
            )
        counter._bits = bytearray(data)
        counter._set_count = sum(bin(b).count("1") for b in counter._bits)
        return counter
