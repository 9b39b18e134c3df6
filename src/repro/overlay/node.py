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

from typing import Dict, Hashable, Optional, Tuple

__all__ = [
    "Node",
    "NodeStore",
    "ReadRows",
    "Stamp",
    "StoreKey",
    "StoreValue",
    "store_changed",
]

#: Store keys are application-defined hashables (DHS uses ``(metric, bit)``).
StoreKey = Hashable
#: Store values are opaque at the overlay layer; applications narrow them.
StoreValue = object
#: The per-node key/value store shared by every overlay geometry.
NodeStore = Dict[StoreKey, StoreValue]
#: Rows derived from the store by a reader: row key -> (packed row, stamp).
ReadRows = Dict[int, Tuple[int, Hashable]]


class Stamp:
    """A deployment's change counters, shared by its DHT and its nodes.

    ``value`` moves on every store write (:func:`store_changed`), every
    join or leave and every change of who answers (a lazy crash, a
    fault-clock step) — and on nothing else.  A reader that derived
    something from the stores, the membership and the fault state keeps
    the ``value`` it read then: while ``value`` is unchanged, so is what
    it derived, and checking costs one int compare at any ring size.
    Each node keeps the ``value`` of its own last store change
    (``Node.changed``), so a reader finds the stores that changed since
    it last read them without rescanning the others.

    ``membership`` moves only when the set of nodes that answer can have
    changed: a join or a leave, a lazy crash, and a fault event, rejoin
    or outage end that a fault-clock step applies.  A clock step that
    applies none of these, and a store write, leave it alone.
    """

    __slots__ = ("value", "membership")

    def __init__(self) -> None:
        self.value = 0
        self.membership = 0


class Node:
    """One overlay node.

    ``read_rows`` caches what the counting walk reads here, derived from
    ``store``: one packed integer per (block of up to 64 metrics,
    position), holding each member's live vector bitmap at that position
    in its own ``m``-bit lane (see :mod:`repro.core.count`).  The store
    stays the source of truth.  Every store mutation calls
    :func:`store_changed` (the writers of :mod:`repro.core.tuples`, the
    graceful-leave merge into an heir, the amnesia wipe), which resets
    the cache to ``None``, moves ``stamp`` and records its new value in
    ``changed``; a departed node's rows leave with it.
    """

    __slots__ = ("node_id", "alive", "store", "read_rows", "stamp", "changed")

    def __init__(self, node_id: int, stamp: Optional[Stamp] = None) -> None:
        self.node_id = node_id
        self.alive = True
        #: Application-level storage; DHS keeps one packed
        #: ``(metric_id, bit) -> PackedSlot`` slot per key here.
        self.store: NodeStore = {}
        #: Derived read rows; ``None`` until the first probe, and again
        #: after every store mutation.
        self.read_rows: Optional[ReadRows] = None
        #: The owning DHT's change counter; a node built on its own
        #: gets its own.
        self.stamp = stamp if stamp is not None else Stamp()
        #: ``stamp.value`` at the last store change; 0 for none yet.
        self.changed = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"Node({self.node_id:#x}, {state}, entries={len(self.store)})"


def store_changed(node: Node) -> None:
    """Mark ``node.store`` as changed: every store mutation calls this.

    The node's derived read rows drop (rebuilt on the next probe), its
    deployment's :class:`Stamp` moves, and ``node.changed`` records
    where it moved to.
    """
    node.read_rows = None
    stamp = node.stamp
    stamp.value += 1
    node.changed = stamp.value
