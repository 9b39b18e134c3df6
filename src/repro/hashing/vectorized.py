"""Vectorized (numpy) twin of the scalar mixer hash path.

Populating DHS with millions of tuples is dominated by hashing and key
splitting; this module reproduces ``MixerHash`` + ``split_key`` bit-for-
bit over integer arrays so workload loading runs at numpy speed.  Tests
assert exact agreement with the scalar implementations.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import numpy.typing as npt

__all__ = [
    "splitmix64_np",
    "mix_with_seed_np",
    "observations_np",
    "observations_u64",
    "popcount64",
]

_U64 = np.uint64


def splitmix64_np(x: npt.NDArray[np.uint64]) -> npt.NDArray[np.uint64]:
    """splitmix64 over a uint64 array (wrap-around semantics)."""
    with np.errstate(over="ignore"):
        x = x + _U64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
        return x ^ (x >> _U64(31))


def mix_with_seed_np(x: npt.NDArray[np.uint64], seed: int) -> npt.NDArray[np.uint64]:
    """Vectorized ``repro.hashing.mixers.mix_with_seed``."""
    from repro.hashing.mixers import splitmix64

    seed_mixed = _U64(splitmix64(seed & 0xFFFFFFFFFFFFFFFF))
    return splitmix64_np(splitmix64_np(x.astype(_U64, copy=False) ^ seed_mixed))


def popcount64(x: npt.NDArray[np.uint64]) -> npt.NDArray[np.int64]:
    """Per-element population count of a uint64 array."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(x).astype(np.int64)
    # SWAR fallback for numpy < 2.0 (exact for all 64-bit values).
    x = x - ((x >> _U64(1)) & _U64(0x5555555555555555))
    x = (x & _U64(0x3333333333333333)) + ((x >> _U64(2)) & _U64(0x3333333333333333))
    x = (x + (x >> _U64(4))) & _U64(0x0F0F0F0F0F0F0F0F)
    with np.errstate(over="ignore"):
        x = x * _U64(0x0101010101010101)
    return (x >> _U64(56)).astype(np.int64)


def observations_np(
    item_ids: npt.NDArray[np.int64],
    m: int,
    key_bits: int,
    seed: int = 0,
) -> Tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """``(vector, position)`` arrays matching the scalar sketch path.

    ``item_ids`` must be non-negative integers (the library's workload
    item ids); see :func:`observations_u64` for ``m`` and ``key_bits``.
    """
    if np.any(np.asarray(item_ids) < 0):
        raise ValueError("vectorized hashing requires non-negative item ids")
    return observations_u64(
        np.asarray(item_ids, dtype=np.int64).astype(_U64), m, key_bits, seed
    )


def observations_u64(
    item_ids: npt.NDArray[np.uint64],
    m: int,
    key_bits: int,
    seed: int = 0,
) -> Tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """:func:`observations_np` over uint64 ids, each hashed as its own value.

    ``m`` must be a positive power of two and ``key_bits`` must exceed
    ``log2(m)`` — the same contract
    :class:`repro.sketches.base.HashSketch` enforces (the ``m - 1``
    bucket mask and the ``log2(m)``-bit shift are wrong otherwise).
    Positions are clamped to ``position_bits - 1`` exactly like
    :meth:`repro.sketches.base.HashSketch.add_key`.
    """
    if m < 1 or m & (m - 1):
        raise ValueError(f"m must be a positive power of two, got {m}")
    c = m.bit_length() - 1
    if key_bits <= c:
        raise ValueError(
            f"key_bits ({key_bits}) must exceed log2(m) ({c}) to leave "
            "room for the position bits"
        )
    position_bits = key_bits - c
    hashed = mix_with_seed_np(item_ids, seed)
    truncated = hashed & _U64((1 << key_bits) - 1)
    vectors = (truncated & _U64(m - 1)).astype(np.int64)
    rest = truncated >> _U64(c)
    # rho: isolate the lowest set bit, then its index is the popcount of
    # (bit - 1) — integer-exact, no float round-trip.  ``rest == 0``
    # (the all-zero suffix) encodes rho = position_bits.
    lowest = rest & (-rest.astype(np.int64)).astype(_U64)
    positions = np.where(
        rest == 0,
        np.int64(position_bits),
        popcount64(np.maximum(lowest, _U64(1)) - _U64(1)),
    )
    positions = np.minimum(positions, position_bits - 1)
    return vectors, positions
