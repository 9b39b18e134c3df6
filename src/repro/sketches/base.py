"""Abstract base class shared by every hash-sketch estimator.

A hash sketch (section 2.2 of the paper) maps each item through a
pseudo-uniform hash, splits the hashed key into a bucket selector (the low
``c = log2 m`` bits) and a geometric observation ``rho`` of the remaining
bits, and records the observation into one of ``m`` buckets.  Insertion is
identical for both of the paper's estimators — PCSA and super-LogLog
differ only in what they retain per bucket and how they turn the buckets
into a cardinality estimate.

The split used here is exactly the paper's DHS convention (section 3.4):
``vector = lsb_k(key) mod m`` and ``position = rho(lsb_k(key) div m)``,
which lets the distributed reconstruction in :mod:`repro.core.count` feed
observed bits straight back into these classes via :meth:`record`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Iterable, Tuple, TypeVar

from repro.errors import ConfigurationError, IncompatibleSketchError
from repro.hashing.bits import lsb, rho
from repro.hashing.family import HashFamily, default_hash_family

__all__ = ["HashSketch", "required_key_bits", "split_key"]

S = TypeVar("S", bound="HashSketch")


def required_key_bits(max_cardinality: int, m: int) -> int:
    """Paper eq. 3: minimum hash length ``H0 = log m + ceil(log(n/m) + 3)``."""
    if max_cardinality < 1:
        raise ConfigurationError(f"max_cardinality must be >= 1, got {max_cardinality}")
    if m < 1 or m & (m - 1):
        raise ConfigurationError(f"m must be a positive power of two, got {m}")
    c = m.bit_length() - 1
    per_bucket = max(1.0, max_cardinality / m)
    return c + max(1, math.ceil(math.log2(per_bucket) + 3))


def split_key(key: int, m: int, key_bits: int) -> Tuple[int, int]:
    """Split a ``key_bits``-bit key into ``(vector, position)``.

    ``vector = lsb(key) mod m`` selects the bucket; ``position`` is the
    paper's ``rho`` of the remaining ``key_bits - log2(m)`` bits.
    """
    c = m.bit_length() - 1
    truncated = lsb(key, key_bits)
    vector = truncated & (m - 1)
    return vector, rho(truncated >> c, key_bits - c)


class HashSketch(ABC):
    """Common machinery for the hash-sketch estimator family.

    Parameters
    ----------
    m:
        Number of buckets (bitmaps); must be a power of two.  Accuracy
        scales as ``O(1/sqrt(m))``, memory as ``O(m)``.
    key_bits:
        Length of the hashed keys actually consumed (the paper's ``k``).
        Bits beyond ``key_bits`` of the hash output are ignored, mirroring
        DHS's use of ``lsb_k``.
    hash_family:
        Pseudo-uniform hash; defaults to the library-wide splitmix64
        family.  Sketches are only mergeable when their families match.
    """

    #: Human-readable estimator name, set by subclasses.
    name: str = "abstract"

    def __init__(
        self,
        m: int = 64,
        key_bits: int = 64,
        hash_family: HashFamily | None = None,
    ) -> None:
        if m < 1 or m & (m - 1):
            raise ConfigurationError(f"m must be a positive power of two, got {m}")
        if key_bits < 1:
            raise ConfigurationError(f"key_bits must be >= 1, got {key_bits}")
        c = m.bit_length() - 1
        if key_bits <= c:
            raise ConfigurationError(
                f"key_bits ({key_bits}) must exceed log2(m) ({c}) to leave "
                "room for the position bits"
            )
        self.m = m
        self.key_bits = key_bits
        self.hash_family = hash_family or default_hash_family(bits=max(64, key_bits))
        #: Number of usable bit positions per bucket (``k - c``).
        self.position_bits = key_bits - c

    # ------------------------------------------------------------------
    # Insertion — identical across estimators (paper section 2.2.2).
    # ------------------------------------------------------------------
    def add(self, item: Any) -> None:
        """Record one item (duplicate-insensitively)."""
        self.add_key(self.hash_family(item))

    def add_all(self, items: Iterable[Any]) -> None:
        """Record every item of an iterable."""
        for item in items:
            self.add(item)

    def add_key(self, key: int) -> None:
        """Record an already-hashed ``key_bits``-bit key.

        The all-zero suffix (``rho == position_bits``) is clamped onto the
        top usable position so that a sketch reconstructed from DHS bits
        (which live in positions ``[0, position_bits)``) matches a locally
        built sketch exactly.
        """
        vector, position = split_key(key, self.m, self.key_bits)
        self.record(vector, min(position, self.position_bits - 1))

    def observation(self, item: Any) -> Tuple[int, int]:
        """Return the ``(vector, position)`` pair an item maps to."""
        return split_key(self.hash_family(item), self.m, self.key_bits)

    # ------------------------------------------------------------------
    # Estimator-specific state.
    # ------------------------------------------------------------------
    @abstractmethod
    def record(self, vector: int, position: int) -> None:
        """Fold the observation ``position`` into bucket ``vector``.

        ``position == position_bits`` encodes the all-zero suffix (the
        paper's ``rho(0) = L`` convention) and is recorded as-is.
        """

    def record_mask(self, vectors: int, position: int) -> None:
        """Record ``position`` into every bucket set in the ``vectors`` bitmap.

        Equivalent to calling :meth:`record` once per set bit; the
        distributed counter keeps its per-metric bookkeeping as packed
        bitmaps, and subclasses override this with a single pass over
        their register state.
        """
        while vectors:
            low = vectors & -vectors
            self.record(low.bit_length() - 1, position)
            vectors ^= low

    @abstractmethod
    def estimate(self) -> float:
        """Return the estimated number of distinct items recorded."""

    @abstractmethod
    def _merge_state(self, other: "HashSketch") -> None:
        """Fold ``other``'s per-bucket state into ours (union semantics)."""

    @abstractmethod
    def _copy_empty(self: S) -> S:
        """Return a fresh sketch with identical configuration."""

    @abstractmethod
    def is_empty(self) -> bool:
        """True when no item has been recorded."""

    # ------------------------------------------------------------------
    # Union / merge.
    # ------------------------------------------------------------------
    def check_compatible(self, other: "HashSketch") -> None:
        """Raise :class:`IncompatibleSketchError` unless merge is sound."""
        if type(self) is not type(other):
            raise IncompatibleSketchError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}"
            )
        if self.m != other.m or self.key_bits != other.key_bits:
            raise IncompatibleSketchError(
                f"parameter mismatch: (m={self.m}, k={self.key_bits}) vs "
                f"(m={other.m}, k={other.key_bits})"
            )
        if self.hash_family != other.hash_family:
            raise IncompatibleSketchError("hash families differ; union is meaningless")

    def merge(self: S, other: "HashSketch") -> S:
        """In-place union: afterwards ``self`` describes the set union."""
        self.check_compatible(other)
        self._merge_state(other)
        return self

    def union(self: S, other: "HashSketch") -> S:
        """Return a new sketch describing the union, leaving inputs intact."""
        out = self.copy()
        return out.merge(other)

    def copy(self: S) -> S:
        """Deep copy of this sketch."""
        out = self._copy_empty()
        out._merge_state(self)
        return out

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @classmethod
    def expected_std_error(cls, m: int) -> float:
        """Theoretical relative standard error for ``m`` buckets."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(m={self.m}, key_bits={self.key_bits}, "
            f"empty={self.is_empty()})"
        )
