"""Contiguous register-array arenas backing the DHS node stores.

The classic layout (``store="packed"``) keeps one
:class:`~repro.core.tuples.PackedSlot` per ``(metric, bit)`` key — a
Python-int bitmap per slot, allocated wherever the heap put it.  This
module provides the ``store="array"`` backend: every slot's immortal
bitmap lives in one contiguous numpy ``uint64`` matrix (the *arena*),
``words = ceil(m / 64)`` words per row, with a free-list allocator
handing rows to slots.  The per-node ``(metric, bit) -> row`` index is
the existing node-store dict, whose values become :class:`RegSlot`
objects — thin row handles that still duck-type ``PackedSlot`` (they
*are* ``PackedSlot`` subclasses), so every slow path (maintenance,
anti-entropy, graceful-leave merges, read repair) works unchanged on
either backend.

Why contiguous rows matter: bulk insertion scatters a whole interval's
vector bitmap into a slot with one vectorized word-OR instead of up to
``m`` dict writes.

The arena is private to its process: every count, probe, merge and
repair reads the slot's mirrored Python-int bitmap, and experiment
drivers parallelize over whole trials
(:func:`repro.sim.parallel.run_trials`), never over one store.

Determinism contract: the arena is storage layout only.  Given the same
operation sequence, the ``array`` and ``packed`` backends hold
bit-identical slot state and produce identical
:class:`~repro.core.count.CountResult`s — a hypothesis suite
(tests/core/test_regstore.py) drives random insert/expire/merge/leave
sequences through both and asserts exactly that, step for step.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import numpy.typing as npt

from repro.core.tuples import PackedSlot
from repro.errors import ConfigurationError

__all__ = ["RegArena", "RegSlot"]

#: Default row capacity of a fresh arena (grows by doubling).
_DEFAULT_CAPACITY = 256

_U64 = np.uint64


class RegArena:
    """A contiguous pool of ``uint64`` register rows.

    Parameters
    ----------
    m:
        Bitmap width in bits (the deployment's ``num_bitmaps``); each
        row spans ``ceil(m / 64)`` words.
    capacity:
        Initial number of rows; the arena doubles on exhaustion.
    """

    __slots__ = (
        "m",
        "words",
        "_data",
        "_capacity",
        "_next",
        "_free",
    )

    def __init__(self, m: int, capacity: int = _DEFAULT_CAPACITY) -> None:
        if m < 1:
            raise ConfigurationError(f"m must be >= 1, got {m}")
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.m = m
        self.words = (m + 63) // 64
        self._capacity = capacity
        self._next = 0
        self._free: List[int] = []
        self._data = np.zeros((capacity, self.words), dtype=_U64)

    @property
    def capacity(self) -> int:
        """Allocated row capacity (rows grow by doubling)."""
        return self._capacity

    @property
    def rows_in_use(self) -> int:
        """Currently-allocated (not freed) rows."""
        return self._next - len(self._free)

    @property
    def nbytes(self) -> int:
        """Size of the register matrix in bytes."""
        return self._capacity * self.words * 8

    # ------------------------------------------------------------------
    # Row allocation.
    # ------------------------------------------------------------------
    def alloc(self) -> int:
        """Allocate one zeroed row and return its index."""
        free = self._free
        if free:
            row = free.pop()
        else:
            if self._next >= self._capacity:
                self._grow()
            row = self._next
            self._next += 1
        self._data[row] = 0
        return row

    def free(self, row: int) -> None:
        """Return ``row`` to the free list.

        The row is *not* zeroed here — :meth:`alloc` zeroes on reuse —
        so freeing from ``__del__`` never writes row data.
        """
        if 0 <= row < self._next:
            self._free.append(row)

    def _grow(self) -> None:
        """Double the row capacity, preserving contents."""
        new_capacity = self._capacity * 2
        grown = np.zeros((new_capacity, self.words), dtype=_U64)
        grown[: self._capacity] = self._data
        self._data = grown
        self._capacity = new_capacity

    def new_slot(self) -> "RegSlot":
        """Allocate an empty slot backed by this arena.

        This is the factory :func:`repro.core.tuples.write_entry` calls,
        which keeps ``tuples`` free of any import of this module.
        """
        return RegSlot(self)

    # ------------------------------------------------------------------
    # Row access.
    # ------------------------------------------------------------------
    def read_row(self, row: int) -> int:
        """The row's bitmap as a Python int."""
        return int.from_bytes(self._data[row].tobytes(), "little")

    def write_row(self, row: int, mask: int) -> None:
        """Overwrite the row with an integer bitmap."""
        self._data[row] = np.frombuffer(
            mask.to_bytes(self.words * 8, "little"), dtype=_U64
        )

    def or_row_words(self, row: int, delta: npt.NDArray[np.uint64]) -> None:
        """OR a ``(words,)`` delta into one row (vectorized scatter)."""
        np.bitwise_or(self._data[row], delta, out=self._data[row])


class RegSlot(PackedSlot):
    """One ``(metric, bit)`` slot whose immortal bitmap is an arena row.

    Byte-compatible with :class:`~repro.core.tuples.PackedSlot`: the
    ``mask`` attribute becomes a property mirroring every update into
    the backing row, so all existing slot consumers (``live_mask``,
    merges, maintenance) work untouched, while vectorized paths operate
    on the row directly.  TTL'd vectors stay in the inherited
    ``expiring`` side map — the rare path the paper's soft-state model
    makes cheap.
    """

    __slots__ = ("arena", "row", "_mask")

    def __init__(
        self,
        arena: RegArena,
        mask: int = 0,
        expiring: Optional[Dict[int, float]] = None,
    ) -> None:
        self.arena = arena
        self.row = arena.alloc()
        self._mask = 0
        PackedSlot.__init__(self, mask, expiring)

    @property  # type: ignore[override]
    def mask(self) -> int:
        return self._mask

    @mask.setter
    def mask(self, value: int) -> None:
        self._mask = value
        self.arena.write_row(self.row, value)

    def or_mask(
        self, add_mask: int, delta: Optional[npt.NDArray[np.uint64]] = None
    ) -> None:
        """Fold ``add_mask`` in, reusing pre-packed ``delta`` words."""
        self._mask |= add_mask
        if delta is not None:
            self.arena.or_row_words(self.row, delta)
        else:
            self.arena.write_row(self.row, self._mask)

    def __del__(self) -> None:
        # Recycle the row.  Guard every attribute: ``__del__`` may run
        # on a partially-initialized instance.
        arena = getattr(self, "arena", None)
        row = getattr(self, "row", None)
        if arena is not None and row is not None:
            arena.free(row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegSlot(row={self.row}, mask={self._mask:#x}, expiring={self.expiring!r})"
