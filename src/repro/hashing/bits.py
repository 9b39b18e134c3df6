"""Bit-level utilities used throughout the sketch and DHS layers.

The central function is :func:`rho`, the paper's ``ρ(y)``: the 0-indexed
position of the least-significant 1-bit of ``y``, with the convention
``rho(0, width) == width`` (section 2.2.1 of the paper, where the width is
the bitmap length ``L``).
"""

from __future__ import annotations

__all__ = [
    "bit",
    "rho",
    "rank",
    "lsb",
    "mask",
]


def mask(width: int) -> int:
    """Return a bit mask with the ``width`` low-order bits set."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def bit(y: int, k: int) -> int:
    """Return the ``k``-th bit of ``y`` (bit 0 = least significant)."""
    if k < 0:
        raise ValueError(f"bit index must be non-negative, got {k}")
    return (y >> k) & 1


def rho(y: int, width: int) -> int:
    """Position of the least-significant 1-bit of ``y`` (0-indexed).

    Follows the paper's convention: ``rho(0) == width`` where ``width`` is
    the number of bits under consideration.  ``y`` is first truncated to its
    ``width`` low-order bits, so stray high bits cannot inflate the result.
    """
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    y &= mask(width)
    if y == 0:
        return width
    return (y & -y).bit_length() - 1


def rank(y: int, width: int) -> int:
    """Durand–Flajolet 1-indexed rank: ``rho(y) + 1``, capped at ``width + 1``.

    This is the register value super-LogLog keeps and its ``alpha-tilde``
    constant is calibrated for; keeping both conventions explicit avoids
    off-by-one bias.
    """
    return rho(y, width) + 1


def lsb(y: int, width: int) -> int:
    """Return the ``width`` low-order bits of ``y`` (the paper's lsb_k)."""
    return y & mask(width)
