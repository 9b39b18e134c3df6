"""Successor-list replication (paper section 3.5).

When inserting or refreshing a DHS bit, the set bit is copied to ``R``
successors of the storing node; a counting probe that hits a failed or
empty node can then walk up to ``R`` successors before declaring the bit
unset.  Each replica write costs one extra hop (the successors are direct
neighbours), so insertion stays ``O(log N)`` total for constant ``R``.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Protocol,
    Tuple,
    cast,
)

from repro.overlay.dht import DHTProtocol
from repro.overlay.node import Node
from repro.overlay.stats import OpCost

__all__ = [
    "ChainView",
    "RegisterSlot",
    "SlotKey",
    "entry_expiry",
    "is_slot_key",
    "replica_chain",
    "replicate_to_successors",
]

#: A DHS store key: ``(metric, bit)``.
SlotKey = Tuple[Hashable, int]


class RegisterSlot(Protocol):
    """Duck type of a DHS register slot (``PackedSlot`` / ``RegSlot``).

    The overlay never imports the core slot classes (layering); it only
    relies on this surface, which both backends provide.
    """

    mask: int
    expiring: Optional[Dict[int, float]]

    def live_mask(self, now: int) -> int: ...


def is_slot_key(key: object) -> bool:
    """Whether a store key has the DHS ``(metric, bit)`` shape."""
    return isinstance(key, tuple) and len(key) == 2 and isinstance(key[1], int)


def entry_expiry(slot: RegisterSlot, vector: int) -> Optional[int]:
    """Expiry a copy of ``vector`` inherits from ``slot``: ``None`` if immortal.

    Raises ``KeyError`` for a vector the slot does not hold — copying an
    absent entry as immortal would manufacture a bit nobody inserted.
    """
    if (slot.mask >> vector) & 1:
        return None
    return int((slot.expiring or {})[vector])


def replica_chain(dht: DHTProtocol, node_id: int, degree: int) -> List[int]:
    """The first ``degree`` distinct *live* successors of ``node_id``.

    Lazily-failed nodes (``mark_failed``) still occupy ring positions but
    have lost their stores — writing a replica there would silently void
    the ``p_f^R`` bit-survival guarantee, so the walk skips them.
    """
    chain: List[int] = []
    current = node_id
    # Bounded by the ring size: ``node_id`` may have been evicted, in
    # which case the walk never revisits it and must stop after one lap.
    for _ in range(dht.size):
        if len(chain) >= degree:
            break
        current = dht.successor_id(current)
        if current == node_id:
            break  # wrapped around a tiny ring
        if dht.is_alive(current):
            chain.append(current)
    return chain


class ChainView:
    """Replica chains and live register state, fixed for one maintenance round.

    A round only writes stores: membership and fault state cannot change
    under it, so the chain members are listed once and a node's
    neighbours are read off that sorted list by index, wrap-around stop
    included (a node has at most ``len(ids) - 1`` neighbours).  The
    members are the nodes that answer right now: anti-entropy and the
    divergence gauge chain only over peers they can exchange messages
    with, so a corpse or a partitioned node is skipped.  A node's
    ``{key: live_mask(now)}`` table is built on first use, in store
    order; the round's single writer calls :meth:`refresh` after writing
    a slot, so a table always equals a fresh scan of its store.  Nothing
    outlives the round.
    """

    def __init__(self, dht: DHTProtocol, now: int) -> None:
        self.dht = dht
        self.now = now
        #: Chain members, sorted: the responsive nodes.
        self.ids: List[int] = dht.responsive_node_ids()
        self._index = {node_id: index for index, node_id in enumerate(self.ids)}
        #: Two laps of the ring, so a chain is one slice even across the wrap.
        self._laps = self.ids * 2
        self._tables: Dict[int, Dict[SlotKey, int]] = {}

    def successors(self, node_id: int, degree: int) -> List[int]:
        """The first ``degree`` chain successors, nearest first."""
        first = self._index[node_id] + 1
        return self._laps[first : first + min(degree, len(self.ids) - 1)]

    def predecessors(self, node_id: int, degree: int) -> List[int]:
        """The first ``degree`` chain predecessors, nearest first."""
        end = self._index[node_id] + len(self.ids)
        return self._laps[end - min(degree, len(self.ids) - 1) : end][::-1]

    def table(self, node_id: int) -> Dict[SlotKey, int]:
        """Live bitmap per DHS key at ``node_id``, in store order.

        Every slot-shaped key is listed (0 for a dead slot or a foreign
        value) so that a later write lands at the key's store position.
        """
        table = self._tables.get(node_id)
        if table is None:
            now = self.now
            table = self._tables[node_id] = {
                cast(SlotKey, key): (
                    cast(RegisterSlot, value).live_mask(now)
                    if hasattr(value, "live_mask")
                    else 0
                )
                for key, value in self.dht.node(node_id).store.items()
                if is_slot_key(key)
            }
        return table

    def refresh(self, node_id: int, key: SlotKey) -> None:
        """Re-read the slot at ``key`` after the round wrote to it."""
        slot = cast(RegisterSlot, self.dht.node(node_id).store[key])
        self.table(node_id)[key] = slot.live_mask(self.now)

    def primary(self, node_id: int, degree: int) -> Dict[SlotKey, int]:
        """Live bits ``node_id`` is primary for, per key.

        The primary-bit rule, defined here only: a node is primary for
        the live bits none of its ``degree`` chain predecessors hold —
        copying only those keeps a chain at ``degree + 1`` holders
        instead of flooding the ring.  A partitioned predecessor is
        not in the view (it cannot answer), so its bits count as
        absent and the node steps up as primary for them, which is what
        lets anti-entropy re-cover a chain *during* an outage.
        """
        preds = [self.table(pred) for pred in self.predecessors(node_id, degree)]
        view: Dict[SlotKey, int] = {}
        for key, live in self.table(node_id).items():
            for pred in preds:
                live &= ~pred.get(key, 0)
            if live:
                view[key] = live
        return view


def replicate_to_successors(
    dht: DHTProtocol,
    node_id: int,
    write: Callable[[Node], None],
    degree: int,
    payload_bytes: int = 8,
) -> Optional[OpCost]:
    """Apply ``write`` to ``degree`` successors of ``node_id``.

    Returns the extra cost (1 hop per replica), or ``None`` when
    ``degree`` is zero.
    """
    if degree <= 0:
        return None
    cost = OpCost()
    for replica in replica_chain(dht, node_id, degree):
        write(dht.node(replica))
        dht.load.record(replica)
        cost.hops += 1
        cost.messages += 1
        cost.bytes += payload_bytes
        if dht.trace:
            cost.nodes_visited.append(replica)
    return cost
