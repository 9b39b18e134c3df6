"""Contiguous sorted id storage for overlay membership.

The overlays keep their live membership as a sorted sequence of node
ids.  The seed representation was a Python ``list`` of ``int`` — fine at
the paper's 1024 nodes, but at the ROADMAP's N=10^5–10^6 every id costs
a 28-byte boxed integer plus an 8-byte list slot, and building a ring by
repeated ``list.insert`` is quadratic interpreter work.

:class:`SortedIdArray` replaces the list with one contiguous
``array('Q')`` buffer (8 bytes per id, buffer-protocol compatible with
numpy):

* membership for an N=10^6 ring is 8 MB of flat array instead of
  ~36 MB of boxed ints;
* scalar binary search (``bisect_left``/``bisect_right``/
  ``__contains__``) is stdlib C ``bisect`` straight on the buffer —
  ~0.6 µs per probe, two orders faster than a per-call scalar
  ``np.searchsorted`` (whose argument coercion dominates at this size)
  and the reason routing hot loops keep their throughput;
* bulk construction (:meth:`merge`) is a single vectorized numpy
  sort-and-verify pass over a zero-copy view of the buffer —
  O((N+K) log (N+K)) total instead of the O(N·K) memmove work of K
  one-at-a-time insertions;
* incremental :meth:`insert`/:meth:`remove` remain available for churn
  (C-speed memmove inside ``array``).

The class satisfies ``Sequence[int]`` exactly as the old list did:
``__getitem__`` returns Python ``int`` (including negative indices —
``ids[index - 1]`` ring wrap-around relies on it), iteration yields
Python ``int``, and ``random.Random.choice`` / stdlib ``bisect`` work
unchanged on it.  Because probes are compared as Python ints, values
outside the uint64 range need no special casing: ``bisect_left(2**64)``
is ``len(self)`` and ``bisect_left(-1)`` is ``lo`` by ordinary
comparison.  Id spaces wider than 64 bits fall back to a plain sorted
``list`` (same API, boxed storage — IdSpace allows up to 256 bits).
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_left as _bisect_left
from bisect import bisect_right as _bisect_right
from typing import (
    Iterable,
    Iterator,
    List,
    Sequence,
    SupportsIndex,
    Union,
    overload,
)

import numpy as np

__all__ = ["SortedIdArray"]


class SortedIdArray(Sequence[int]):
    """A sorted, duplicate-free sequence of node ids on a flat buffer.

    Parameters
    ----------
    bits:
        Width of the id space.  Ids up to 64 bits live in an
        ``array('Q')`` buffer; wider spaces use a plain list.
    ids:
        Optional initial ids (any order; duplicates raise ``ValueError``).
    """

    __slots__ = ("_data",)

    def __init__(self, bits: int = 64, ids: Iterable[int] = ()) -> None:
        self._data: Union["array[int]", List[int]] = (
            array("Q") if bits <= 64 else []
        )
        initial = list(ids)
        if initial:
            self.merge(initial)

    # ------------------------------------------------------------------
    # Sequence protocol (drop-in for the seed ``List[int]``).
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    @overload
    def __getitem__(self, index: int) -> int: ...

    @overload
    def __getitem__(self, index: slice) -> List[int]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[int, List[int]]:
        if isinstance(index, slice):
            return list(self._data[index])
        return self._data[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._data)

    def __contains__(self, value: object) -> bool:
        if not isinstance(value, int):
            # Other integrals (numpy scalars) are members by their index
            # value; anything non-integral never is.
            if not isinstance(value, SupportsIndex):
                return False
            value = operator.index(value)
        index = _bisect_left(self._data, value)
        return index < len(self._data) and self._data[index] == value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SortedIdArray(n={len(self._data)}, nbytes={self.nbytes})"

    @property
    def buffer(self) -> Union["array[int]", List[int]]:
        """The sorted backing store itself (``array('Q')`` or a list).

        For a hot loop that bisects and indexes it directly, skipping
        the per-item wrapper; read only — mutate through the methods.
        """
        return self._data

    # ------------------------------------------------------------------
    # Binary search (stdlib C bisect on the raw buffer).
    # ------------------------------------------------------------------
    def bisect_left(self, value: int, lo: int = 0, hi: Union[int, None] = None) -> int:
        """Leftmost insertion point of ``value`` in ``[lo, hi)``."""
        if hi is None:
            hi = len(self._data)
        return _bisect_left(self._data, value, lo, hi)

    def bisect_right(self, value: int, lo: int = 0, hi: Union[int, None] = None) -> int:
        """Rightmost insertion point of ``value`` in ``[lo, hi)``."""
        if hi is None:
            hi = len(self._data)
        return _bisect_right(self._data, value, lo, hi)

    # ------------------------------------------------------------------
    # Ring neighbours: the one place wrap-around is written.  Both raise
    # ``IndexError`` on an empty array.
    # ------------------------------------------------------------------
    def first_at_or_after(self, value: int) -> int:
        """First id ``>= value``, wrapping to the lowest id past the top."""
        data = self._data
        index = _bisect_left(data, value)
        return data[index] if index < len(data) else data[0]

    def last_before(self, value: int) -> int:
        """Last id ``< value``, wrapping to the highest id below the bottom."""
        return self._data[_bisect_left(self._data, value) - 1]

    # ------------------------------------------------------------------
    # Mutation.
    # ------------------------------------------------------------------
    def insert(self, value: int) -> None:
        """Insert one id, keeping the buffer sorted.

        O(N) memmove in C.  Raises ``ValueError`` if the id is already
        present.
        """
        index = _bisect_left(self._data, value)
        if index < len(self._data) and self._data[index] == value:
            raise ValueError(f"id {value:#x} already present")
        self._data.insert(index, value)

    def remove(self, value: int) -> None:
        """Remove one id; raises ``ValueError`` when absent."""
        index = _bisect_left(self._data, value)
        if index >= len(self._data) or self._data[index] != value:
            raise ValueError(f"id {value:#x} not present")
        del self._data[index]

    def merge(self, values: Sequence[int]) -> None:
        """Bulk-add ``values`` with a single sort-and-verify pass.

        This is the O(1)-amortized-per-id construction path: building an
        N-node ring is one vectorized sort instead of N binary-insertion
        shifts.  Raises ``ValueError`` on any duplicate (within
        ``values`` or against the existing ids), leaving the array
        unchanged.
        """
        if not values:
            return
        if isinstance(self._data, list):  # wide id space: boxed path
            combined_list = self._data + [int(value) for value in values]
            combined_list.sort()
            for left, right in zip(combined_list, combined_list[1:]):
                if left == right:
                    raise ValueError(f"id {left:#x} already present")
            self._data = combined_list
            return
        incoming = np.array(values, dtype=np.uint64)
        existing = (
            np.frombuffer(self._data, dtype=np.uint64)
            if self._data
            else np.empty(0, dtype=np.uint64)
        )
        combined = np.concatenate([existing, incoming])
        combined.sort(kind="stable")
        if combined.size > 1:
            duplicate = np.nonzero(combined[1:] == combined[:-1])[0]
            if duplicate.size:
                value = int(combined[int(duplicate[0])])
                raise ValueError(f"id {value:#x} already present")
        fresh: "array[int]" = array("Q")
        fresh.frombytes(combined.tobytes())
        self._data = fresh

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def tolist(self) -> List[int]:
        """The ids as a plain list of Python ints."""
        return list(self._data)

    @property
    def nbytes(self) -> int:
        """Bytes held by the backing buffer (8 per stored id)."""
        if isinstance(self._data, list):
            return 8 * len(self._data)  # slot bytes; boxed ints extra
        return self._data.itemsize * len(self._data)
