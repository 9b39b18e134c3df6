"""DHS wire tuples and node-store layout.

A DHS entry is the paper's ``<metric_id, vector_id, bit, time_out>``
tuple (section 3.2/3.4).  On a node we index entries by ``(metric, bit)``
and keep one :class:`PackedSlot` per key: a packed integer bitmap whose
bit ``v`` says "vector ``v`` has bit ``bit`` set", plus a small
``{vector_id: expiry}`` side map for the (rare) TTL'd entries.  A
counting probe — "which vectors have bit ``r`` set for these metrics?" —
is then a single mask read (:func:`vectors_mask`) in the common
never-expiring case, instead of a per-vector dict walk.  A node stores at
most one entry per (metric, vector, bit): re-insertions only refresh the
expiry, and an immortal entry dominates any TTL.

Two storage backends share this slot interface
(``DHSConfig(store=...)``):

* ``"packed"`` — plain :class:`PackedSlot` objects, the reference
  implementation;
* ``"array"`` — :class:`~repro.core.regstore.RegSlot` subclasses whose
  immortal bitmap lives in a contiguous
  :class:`~repro.core.regstore.RegArena` row, enabling vectorized bulk
  writes.

Every function here accepts either slot type; passing an ``arena``
selects which one a fresh slot becomes.  Every writer here, and a sweep
that removes an entry, marks the change with
:func:`~repro.overlay.node.store_changed`: it drops the node's derived
counting rows (``Node.read_rows``, see :mod:`repro.core.count`) and
moves the deployment's change stamp.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Optional

import numpy as np
import numpy.typing as npt

from repro.overlay.node import Node, StoreValue, store_changed

if TYPE_CHECKING:  # imported for annotations only — no runtime cycle
    from repro.core.regstore import RegArena

__all__ = [
    "PackedSlot",
    "bits_of",
    "write_entry",
    "write_entry_mask",
    "vectors_mask",
    "merge_store_values",
    "purge_expired",
    "storage_entries",
]

#: Expiry sentinel for entries that never age out.
_NEVER = float("inf")


class PackedSlot:
    """Packed storage for one ``(metric, bit)`` slot.

    ``mask`` holds the never-expiring vectors as an integer bitmap (bit
    ``v`` set ⇔ vector ``v`` stored forever); ``expiring`` holds only the
    TTL'd vectors as ``{vector_id: expiry}`` and is ``None`` until the
    first TTL write.  A vector lives in exactly one of the two — an
    immortal entry absorbs and dominates any finite expiry.

    Two cached summaries of ``expiring`` keep :meth:`live_mask` off the
    dict walk in the common case: ``_ttl_or`` (bitmap of TTL'd vectors,
    possibly a stale superset whose extra bits are always in ``mask``)
    and ``_ttl_min`` (a lower bound on the earliest expiry).  While
    ``now <= _ttl_min`` every TTL'd entry is provably live, so the
    result is just ``mask | _ttl_or``.
    """

    __slots__ = ("mask", "expiring", "_ttl_or", "_ttl_min")

    def __init__(
        self, mask: int = 0, expiring: Optional[Dict[int, float]] = None
    ) -> None:
        self.mask = mask
        self.expiring = expiring
        self._recompute_ttl_cache()

    def _recompute_ttl_cache(self) -> None:
        """Rebuild the exact TTL summaries from ``expiring``."""
        expiring = self.expiring
        if expiring:
            ttl_or = 0
            for vector in expiring:
                ttl_or |= 1 << vector
            self._ttl_or = ttl_or
            self._ttl_min = min(expiring.values())
        else:
            self._ttl_or = 0
            self._ttl_min = _NEVER

    def reset(self, mask: int, expiring: Optional[Dict[int, float]]) -> None:
        """Replace the slot's contents wholesale (merge paths)."""
        self.mask = mask
        self.expiring = expiring if expiring else None
        self._recompute_ttl_cache()

    def or_mask(
        self, add_mask: int, delta: Optional["npt.NDArray[np.uint64]"] = None
    ) -> None:
        """Fold a whole immortal bitmap in (``delta`` ignored here;
        :class:`~repro.core.regstore.RegSlot` uses it for the row OR)."""
        self.mask |= add_mask

    def live_mask(self, now: int) -> int:
        """Bitmap of vectors alive at time ``now`` (immortal + unexpired)."""
        expiring = self.expiring
        if not expiring:
            return self.mask
        if now <= self._ttl_min:
            # Short-circuit: the earliest expiry is still in the future,
            # so every TTL'd vector is live — no dict walk.
            return self.mask | self._ttl_or
        mask = self.mask
        for vector, expiry in expiring.items():
            if expiry >= now:
                mask |= 1 << vector
        return mask

    def entries(self) -> int:
        """Stored entry count (live or stale)."""
        return self.mask.bit_count() + (len(self.expiring) if self.expiring else 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedSlot):
            return NotImplemented
        return self.mask == other.mask and (self.expiring or {}) == (
            other.expiring or {}
        )

    def __hash__(self) -> int:  # pragma: no cover - slots are not dict keys
        return hash((self.mask, tuple(sorted((self.expiring or {}).items()))))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedSlot(mask={self.mask:#x}, expiring={self.expiring!r})"


def bits_of(mask: int) -> List[int]:
    """Set-bit positions of ``mask``, ascending."""
    out: List[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _live(expiry: float, now: int) -> bool:
    return expiry >= now


def _slot_for(
    node: Node, metric_id: Hashable, bit: int, arena: Optional["RegArena"]
) -> PackedSlot:
    """The slot for ``(metric_id, bit)``, created on the chosen backend.

    Every writer gets its slot here, about to change it, so the store
    change is marked here too (:func:`~repro.overlay.node.store_changed`).
    """
    store_changed(node)
    key = (metric_id, bit)
    raw = node.store.get(key)
    if isinstance(raw, PackedSlot):
        return raw
    slot = PackedSlot() if arena is None else arena.new_slot()
    node.store[key] = slot
    return slot


def write_entry(
    node: Node,
    metric_id: Hashable,
    vector_id: int,
    bit: int,
    expiry: Optional[int],
    arena: Optional["RegArena"] = None,
) -> None:
    """Record (or refresh) one DHS entry at ``node``.

    ``arena`` selects the storage backend for freshly-created slots
    (``None`` = plain :class:`PackedSlot`); existing slots keep their
    backend either way.
    """
    slot = _slot_for(node, metric_id, bit, arena)
    vector_bit = 1 << vector_id
    if expiry is None:
        # Immortal: fold into the mask; it dominates any pending TTL.
        if slot.mask & vector_bit:
            return  # already immortal — nothing to change
        slot.mask |= vector_bit
        expiring = slot.expiring
        if expiring:
            expiring.pop(vector_id, None)  # a TTL'd entry is promoted
        return
    if slot.mask & vector_bit:
        return  # already stored forever; a TTL refresh cannot shorten it
    expiring = slot.expiring
    if expiring is None:
        expiring = slot.expiring = {}
    new_expiry = float(expiry)
    current = expiring.get(vector_id)
    if current is None:
        expiring[vector_id] = new_expiry
        slot._ttl_or |= vector_bit
        if new_expiry < slot._ttl_min:
            slot._ttl_min = new_expiry
    elif new_expiry > current:
        # Refresh (max-wins): ``_ttl_min`` may now be a stale lower
        # bound, which only makes the live_mask short-circuit fire less
        # often — never incorrectly.
        expiring[vector_id] = new_expiry


def write_entry_mask(
    node: Node,
    metric_id: Hashable,
    bit: int,
    add_mask: int,
    delta: Optional["npt.NDArray[np.uint64]"] = None,
    arena: Optional["RegArena"] = None,
    expiry: Optional[int] = None,
) -> None:
    """Write a whole vector bitmap into one ``(metric, bit)`` slot.

    Equivalent to ``write_entry(node, metric_id, v, bit, expiry)`` for
    every set bit ``v`` of ``add_mask``, ascending — the one slot writer
    of every insert.  An immortal bitmap (``expiry=None``) lands as a
    single mask OR (and, on the array backend, a single vectorized word
    OR of the pre-packed ``delta`` row) instead of up to ``m`` per-vector
    writes; a TTL'd one is one pass over the slot's expiry map, new
    vectors appended in ascending order, existing ones refreshed
    max-wins.  An empty ``add_mask`` creates no slot.
    """
    if expiry is not None:
        if add_mask:
            _write_ttl_mask(_slot_for(node, metric_id, bit, arena), add_mask, expiry)
        return
    slot = _slot_for(node, metric_id, bit, arena)
    new_bits = add_mask & ~slot.mask
    if not new_bits:
        return
    expiring = slot.expiring
    if expiring:
        for vector in bits_of(new_bits & slot._ttl_or):
            expiring.pop(vector, None)
    slot.or_mask(add_mask, delta)


def _write_ttl_mask(slot: PackedSlot, add_mask: int, expiry: int) -> None:
    """``write_entry`` of every vector in ``add_mask`` at ``expiry``, ascending."""
    ttl_bits = add_mask & ~slot.mask  # immortal vectors cannot be shortened
    if not ttl_bits:
        return
    expiring = slot.expiring
    if expiring is None:
        expiring = slot.expiring = {}
    # ``_ttl_or``'s extra bits are all in ``mask``, so these are exactly
    # the vectors not yet in ``expiring``.
    new_vectors = ttl_bits & ~slot._ttl_or
    new_expiry = float(expiry)
    for vector in bits_of(ttl_bits):
        if expiring.get(vector, -_NEVER) < new_expiry:
            expiring[vector] = new_expiry
    if new_vectors:
        slot._ttl_or |= new_vectors
        if new_expiry < slot._ttl_min:
            slot._ttl_min = new_expiry


def vectors_mask(node: Node, metric_id: Hashable, bit: int, now: int = 0) -> int:
    """Bitmap of vector ids with a live bit ``bit`` for ``metric_id``."""
    slot = node.store.get((metric_id, bit))
    if not isinstance(slot, PackedSlot):
        return 0
    return slot.live_mask(now)


def merge_store_values(
    existing: Optional[StoreValue], incoming: StoreValue
) -> StoreValue:
    """Merge two slots for the same key (used on graceful leave).

    Packed slots merge mask-wise (union of immortal vectors, max-wins on
    TTL'd expiries, immortality dominating) and the merge is folded into
    ``incoming`` in place — for an array-backed
    :class:`~repro.core.regstore.RegSlot` that moves the leaver's arena
    row to the heir zero-copy.  Any other value is another application's
    (a baseline counter, say) and passes to the heir unchanged.
    """
    if isinstance(incoming, PackedSlot):
        mask = incoming.mask
        expiring: Dict[int, float] = dict(incoming.expiring or {})
        if isinstance(existing, PackedSlot):
            mask |= existing.mask
            for vector, expiry in (existing.expiring or {}).items():
                current = expiring.get(vector)
                if current is None or expiry > current:
                    expiring[vector] = expiry
        for vector in bits_of(mask):
            expiring.pop(vector, None)
        incoming.reset(mask, expiring or None)
        return incoming
    return incoming


def purge_expired(node: Node, now: int) -> int:
    """Drop expired entries from ``node``; returns how many were removed."""
    removed = 0
    dead_slots = []
    for slot_key, slot in node.store.items():
        if not isinstance(slot, PackedSlot):
            continue
        expiring = slot.expiring
        if expiring and now > slot._ttl_min:
            stale = [
                vector for vector, expiry in expiring.items() if not _live(expiry, now)
            ]
            for vector in stale:
                del expiring[vector]
            removed += len(stale)
            if not expiring:
                slot.expiring = None
            slot._recompute_ttl_cache()
        if slot.mask == 0 and not slot.expiring:
            dead_slots.append(slot_key)
    for slot_key in dead_slots:
        del node.store[slot_key]
    if removed:
        store_changed(node)
    return removed


def storage_entries(node: Node) -> int:
    """Number of live-or-stale DHS entries stored at ``node``.

    The paper's storage load (section 5.1): a count of the node's
    ``<metric, vector, bit, time_out>`` tuples, summed over its slots
    when asked.  Its readers run once per experiment cell, after the
    operations.
    """
    return sum(
        slot.entries()
        for slot in node.store.values()
        if isinstance(slot, PackedSlot)
    )
