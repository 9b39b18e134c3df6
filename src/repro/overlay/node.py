"""Overlay node state.

A node is deliberately thin: an identifier, a liveness flag, and an
application-managed key/value store.  All routing intelligence lives in
the overlay (each hop is computed from the ring membership, never from
stored finger tables — an ideally-stabilized DHT, which is also what the
paper's evaluation assumes).

The store is typed through the ``StoreKey``/``StoreValue``/``NodeStore``
aliases shared with :mod:`repro.core.tuples`: values are opaque to the
overlay (``object``), and each application narrows them back with
``isinstance`` — DHS keeps one packed ``PackedSlot`` per ``(metric, bit)``
key, the baselines keep their own counter/set slots.
"""

from __future__ import annotations

from typing import Dict, Hashable

__all__ = ["Node", "NodeStore", "StoreKey", "StoreValue"]

#: Store keys are application-defined hashables (DHS uses ``(metric, bit)``).
StoreKey = Hashable
#: Store values are opaque at the overlay layer; applications narrow them.
StoreValue = object
#: The per-node key/value store shared by every overlay geometry.
NodeStore = Dict[StoreKey, StoreValue]


class Node:
    """One overlay node."""

    __slots__ = ("node_id", "alive", "store", "app_entries", "app_entries_stale")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.alive = True
        #: Application-level storage; DHS keeps one packed
        #: ``(metric_id, bit) -> PackedSlot`` slot per key here.
        self.store: NodeStore = {}
        #: Application-maintained entry count (DHS tuples stored here).
        #: Kept incrementally by ``repro.core.tuples.write_entry`` /
        #: ``purge_expired`` so load snapshots avoid a full store scan.
        self.app_entries = 0
        #: Set by bulk store merges (graceful leaves); the next
        #: ``storage_entries`` query rescans once to resynchronize.
        self.app_entries_stale = False

    @property
    def storage_entries(self) -> int:
        """Number of stored slots (the per-node storage-load metric)."""
        return len(self.store)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"Node({self.node_id:#x}, {state}, entries={len(self.store)})"
