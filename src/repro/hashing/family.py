"""Hash-function abstraction shared by sketches and the overlay.

Both DHTs and hash sketches assume a pseudo-uniform hash
``h: D -> [0, 2^L)`` (section 2.2 of the paper).  :class:`HashFamily`
provides exactly that contract for arbitrary Python items (ints, numpy
integers, strings, bytes) with two interchangeable back-ends:

* :class:`MixerHash` — seeded splitmix64 family; the default, fast enough
  to hash millions of items in a simulation run.
* :class:`MD4Hash` — the paper's own choice, built on our RFC 1320
  implementation; byte-for-byte reproducible across platforms.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.hashing.bits import mask
from repro.hashing.md4 import md4_int
from repro.hashing.mixers import splitmix64

__all__ = ["HashFamily", "MixerHash", "MD4Hash", "default_hash_family"]


def _to_bytes(item: Any) -> bytes:
    """Canonical byte encoding for the hashable item types we support."""
    if isinstance(item, bytes):
        return item
    if isinstance(item, str):
        return item.encode("utf-8")
    if isinstance(item, bool):
        # bool is an int subclass; give it a distinct tag to avoid aliasing
        # True with the integer 1 in string-keyed workloads.
        return b"bool:\x01" if item else b"bool:\x00"
    if isinstance(item, (int, np.integer)):
        item = int(item)  # a numpy integer hashes as its value
        width = max(8, (item.bit_length() + 8) // 8 * 8)
        return item.to_bytes(width // 8, "little", signed=True)
    if isinstance(item, tuple):
        parts = [b"tuple:", len(item).to_bytes(4, "little")]
        for element in item:
            encoded = _to_bytes(element)
            parts.append(len(encoded).to_bytes(4, "little"))
            parts.append(encoded)
        return b"".join(parts)
    raise TypeError(f"unhashable item type for HashFamily: {type(item).__name__}")


def _to_int(item: Any) -> int:
    """Map an item onto an integer for the mixer back-end."""
    if isinstance(item, bool):
        return 0x626F6F6C_00000000 | int(item)
    if isinstance(item, (int, np.integer)):
        return int(item)
    data = _to_bytes(item)
    # Fold the bytes FNV-1a style, then rely on the mixer for avalanche.
    acc = 0xCBF29CE484222325
    for byte in data:
        acc = ((acc ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


class HashFamily(ABC):
    """A family of pseudo-uniform hash functions ``h: item -> [0, 2^bits)``.

    ``seed`` selects a member of the family; sketches that need independent
    hash functions (e.g. per-experiment randomization) instantiate the same
    family with different seeds.
    """

    def __init__(self, bits: int = 64, seed: int = 0) -> None:
        if not 0 < bits <= 128:
            raise ValueError(f"bits must be in (0, 128], got {bits}")
        self.bits = bits
        self.seed = seed
        self._mask = mask(bits)

    @abstractmethod
    def hash(self, item: Any) -> int:
        """Return the ``bits``-bit hash of ``item``."""

    def __call__(self, item: Any) -> int:
        return self.hash(item)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(bits={self.bits}, seed={self.seed})"

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.bits == other.bits  # type: ignore[attr-defined]
            and self.seed == other.seed  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.bits, self.seed))


class MixerHash(HashFamily):
    """splitmix64 family, the library default; mixes its seed once, not per item."""

    def __init__(self, bits: int = 64, seed: int = 0) -> None:
        super().__init__(bits, seed)
        self._seed_mix = splitmix64(seed)

    def hash(self, item: Any) -> int:
        value = splitmix64(splitmix64(_to_int(item) ^ self._seed_mix))
        if self.bits > 64:
            value |= splitmix64(value) << 64
        return value & self._mask


class MD4Hash(HashFamily):
    """MD4-based family, matching the paper's evaluation setup.

    The seed is prepended to the item encoding, giving independent family
    members without altering the digest algorithm itself.
    """

    def hash(self, item: Any) -> int:
        prefix = self.seed.to_bytes(8, "little", signed=True)
        return md4_int(prefix + _to_bytes(item), bits=min(self.bits, 128))


def default_hash_family(bits: int = 64, seed: int = 0) -> HashFamily:
    """The hash family used across the library unless overridden."""
    return MixerHash(bits=bits, seed=seed)
