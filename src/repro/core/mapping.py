"""Bit-position ↦ id-space-interval mapping (paper section 3.1).

The node-id space ``[0, 2^L)`` is partitioned into consecutive,
exponentially shrinking intervals ``I_r = [thr(r), thr(r-1))`` with
``thr(r) = 2^(L-r-1)``; bit ``r`` of every bitmap of every metric lives
at uniformly random keys inside ``I_r``.  The last usable position
absorbs the remainder ``[0, thr(last-1))`` so the ring is fully covered.

Because both the items hitting bit ``r`` (``n * 2^(-r-1)`` of them) and
the interval size (``2^(L-r-1)`` ids, hence ``~N * 2^(-r-1)`` nodes)
shrink at the same rate, the expected per-node load is uniform — the
property that lets DHS claim total access/storage balance.

With the fault-tolerance shift ``b`` (section 3.5), stored position
``r`` is mapped to the interval of position ``r - b``; positions below
``b`` are never stored and assumed set.

Random keys inside an interval are drawn from a per-interval table of
``(lo, width, width.bit_length())``: ``getrandbits`` of that many bits,
redrawn while the draw is not below ``width``.  That is the loop
CPython's ``randrange(lo, hi)`` runs (``_randbelow_with_getrandbits``),
so the stream is the same call for call, without the wrapper's argument
checks.  Every interval width is a power of two, so about half the
draws are redrawn, as they are under ``randrange``.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.core.config import DHSConfig
from repro.errors import ConfigurationError
from repro.overlay.idspace import IdSpace

__all__ = ["BitIntervalMap"]


class BitIntervalMap:
    """Maps bitmap positions to id-space intervals for one deployment."""

    def __init__(self, space: IdSpace, config: DHSConfig) -> None:
        if config.key_bits > space.bits:
            raise ConfigurationError(
                f"DHS key_bits ({config.key_bits}) cannot exceed the "
                f"overlay id width ({space.bits})"
            )
        self.space = space
        self.config = config
        #: Number of intervals: one per *stored* position.
        self.num_intervals = config.position_bits - config.bit_shift
        #: Precomputed ``[lo, hi)`` bounds per interval.
        bits = space.bits
        self.bounds: Tuple[Tuple[int, int], ...] = tuple(
            (
                0 if index == self.num_intervals - 1 else 1 << (bits - index - 1),
                1 << (bits - index),
            )
            for index in range(self.num_intervals)
        )
        #: ``(lo, width, width.bit_length())`` per interval: the key draw's table.
        self._draws: Tuple[Tuple[int, int, int], ...] = tuple(
            (lo, hi - lo, (hi - lo).bit_length()) for lo, hi in self.bounds
        )

    def threshold(self, r: int) -> int:
        """``thr(r) = 2^(L-r-1)``; ``thr(-1)`` is the ring size."""
        if r < -1:
            raise ValueError(f"r must be >= -1, got {r}")
        return 1 << (self.space.bits - r - 1)

    def is_stored(self, position: int) -> bool:
        """Whether ``position`` is materialized (not shifted away)."""
        return position >= self.config.bit_shift

    def interval_index(self, position: int) -> int:
        """Interval index for a stored bitmap ``position``."""
        if not self.is_stored(position):
            raise ValueError(
                f"position {position} is below the bit shift "
                f"({self.config.bit_shift}) and is never stored"
            )
        index = position - self.config.bit_shift
        if index >= self.num_intervals:
            raise ValueError(
                f"position {position} out of range (max stored position is "
                f"{self.config.position_bits - 1})"
            )
        return index

    def _checked(self, index: int) -> int:
        """``index``, or ``ValueError`` when no interval has it."""
        if not 0 <= index < self.num_intervals:
            raise ValueError(
                f"interval index {index} out of range [0, {self.num_intervals})"
            )
        return index

    def interval_for_index(self, index: int) -> Tuple[int, int]:
        """Half-open id range ``[lo, hi)`` of interval ``index``.

        The last interval absorbs ``[0, thr(last - 1))``.
        """
        return self.bounds[self._checked(index)]

    def interval_for_position(self, position: int) -> Tuple[int, int]:
        """Id range storing bitmap ``position`` (after the shift)."""
        return self.interval_for_index(self.interval_index(position))

    def position_for_index(self, index: int) -> int:
        """Inverse of :meth:`interval_index`."""
        return self._checked(index) + self.config.bit_shift

    def random_key_in_interval(self, index: int, rng: random.Random) -> int:
        """A uniformly random id inside interval ``index``.

        Consumes ``rng`` exactly as ``rng.randrange(lo, hi)`` would and
        returns the same key.
        """
        lo, width, k = self._draws[self._checked(index)]
        getrandbits = rng.getrandbits
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        return lo + r

    def random_keys(self, rng: random.Random) -> List[int]:
        """One random key per interval, in ascending interval order.

        The same keys, from the same ``rng`` calls, as
        :meth:`random_key_in_interval` over every index in turn.
        """
        getrandbits = rng.getrandbits
        keys = []
        for lo, width, k in self._draws:
            r = getrandbits(k)
            while r >= width:
                r = getrandbits(k)
            keys.append(lo + r)
        return keys

    def expected_nodes(self, index: int, n_nodes: int) -> float:
        """Expected live nodes inside interval ``index`` (uniform ids)."""
        lo, hi = self.interval_for_index(index)
        return n_nodes * (hi - lo) / self.space.size
