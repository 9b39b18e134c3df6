"""Circular identifier-space arithmetic for DHT overlays.

All DHTs in this library share an ``L``-bit identifier ring
``[0, 2^L)``; this module centralizes its wrap-around arithmetic, so the
routing code reads like the protocol pseudo-code.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["IdSpace"]


@dataclass(frozen=True)
class IdSpace:
    """An ``L``-bit circular identifier space."""

    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 256:
            raise ValueError(f"bits must be in [1, 256], got {self.bits}")

    @property
    def size(self) -> int:
        """Number of identifiers, ``2^bits``."""
        return 1 << self.bits

    def contains(self, value: int) -> bool:
        """Whether ``value`` is a valid identifier."""
        return 0 <= value < self.size

    def wrap(self, value: int) -> int:
        """Reduce ``value`` modulo the ring size."""
        return value & (self.size - 1)

    def distance(self, src: int, dst: int) -> int:
        """Clockwise distance from ``src`` to ``dst``."""
        return self.wrap(dst - src)
