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
    Iterable,
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
#: A node store as the DHS reads it (other keys are skipped at runtime).
_SlotStore = Dict[SlotKey, object]


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
    with, so a corpse or a partitioned node is skipped.

    A node's live register state is one packed Python int
    (:meth:`packed`): every ``(metric, bit)`` key the round meets gets a
    fixed slice of ``width`` bits, at an offset assigned the first time
    the key is seen, so the same key sits at the same bits on every
    node and chain arithmetic is a handful of big-int operations.
    ``width`` is the widest live bitmap seen so far; a wider one
    re-packs every int once, so an int read off the view is only valid
    until the next node is packed: :meth:`pack` every node a check
    involves before reading any of them.  The int is built on first use
    in one store scan, and the round's single writer calls :meth:`refresh`
    after writing a slot, so it always equals a fresh scan.  A
    ``{key: live}`` dict (:meth:`unpack`) is built only where a view
    must be spelled out key by key, in store order.  A member never
    materialized (lazy membership) has an empty store: it packs as 0
    and stays unmaterialized.

    A view is exact for as long as its ``now``, the stores, the
    membership and the fault state are what they were when it was last
    brought up to date, and no longer: the divergence gauge reads the
    view of the round that ran just before it only when it asks at the
    same ``now`` and the deployment's
    :class:`~repro.overlay.node.Stamp` has not moved since that round's
    last write (no store write, join, leave, crash or fault-clock step
    in between); otherwise it builds its own.
    """

    def __init__(self, dht: DHTProtocol, now: int) -> None:
        self.dht = dht
        self.now = now
        #: Chain members, sorted: the responsive nodes.
        self.ids: List[int] = dht.responsive_node_ids()
        self._index = {node_id: index for index, node_id in enumerate(self.ids)}
        #: Two laps of the ring, so a chain is one slice even across the wrap.
        self._laps = self.ids * 2
        self._packed: Dict[int, int] = {}
        #: Bit offset of each key's slice, in order of first sighting.
        self._shifts: Dict[SlotKey, int] = {}
        self._width = 0
        #: ``(1 << width) - 1``: one whole slice.
        self._full = 0
        #: :meth:`expand` memo; stale once a key or the width changes.
        self._expanded: Dict[int, int] = {}
        #: :meth:`primary` memo per ``(node, degree)``; stale after any
        #: write or a change of width.
        self._primaries: Dict[Tuple[int, int], int] = {}

    def successors(self, node_id: int, degree: int) -> List[int]:
        """The first ``degree`` chain successors, nearest first."""
        first = self._index[node_id] + 1
        return self._laps[first : first + min(degree, len(self.ids) - 1)]

    def predecessors(self, node_id: int, degree: int) -> List[int]:
        """The first ``degree`` chain predecessors, nearest first."""
        return self._chain_to(node_id, degree)[-2::-1]

    def _chain_to(self, node_id: int, degree: int) -> List[int]:
        """``node_id``'s first ``degree`` predecessors, farthest first, then itself."""
        end = self._index[node_id] + len(self.ids)
        return self._laps[end - min(degree, len(self.ids) - 1) : end + 1]

    def packed(self, node_id: int) -> int:
        """``node_id``'s live register state, one slice per key."""
        try:
            return self._packed[node_id]
        except KeyError:
            packed = self._packed[node_id] = self._pack(node_id)
            return packed

    def pack(self, node_ids: Iterable[int]) -> None:
        """Pack ``node_ids`` now, so no later read re-packs an int in hand."""
        packed = self._packed
        for node_id in node_ids:
            if node_id not in packed:
                packed[node_id] = self._pack(node_id)

    def _pack(self, node_id: int) -> int:
        """One store scan; a foreign value under a slot key packs as 0,
        and so does a node never materialized."""
        now = self.now
        shifts = self._shifts
        node = self.dht.node_if_materialized(node_id)
        if node is None:
            return 0
        packed = widest = 0
        for key, value in cast(_SlotStore, node.store).items():
            shift = shifts.get(key)
            if shift is None:
                if not is_slot_key(key):
                    continue
                shift = self._add_key(key)
            live_mask = getattr(value, "live_mask", None)
            if live_mask is not None:
                live = live_mask(now)
                widest |= live
                packed |= live << shift
        if widest > self._full:  # a slice bled into its neighbour
            self._widen(widest.bit_length())
            return self._pack(node_id)
        return packed

    def _add_key(self, key: SlotKey) -> int:
        shift = self._shifts[key] = len(self._shifts) * self._width
        self._expanded.clear()
        return shift

    def _widen(self, width: int) -> None:
        """Re-pack every int at ``width`` bits per slice."""
        old = [(shift, index * width) for index, shift in enumerate(self._shifts.values())]
        full = self._full
        for node_id, packed in self._packed.items():
            self._packed[node_id] = sum(
                ((packed >> shift) & full) << new for shift, new in old
            )
        self._shifts = {key: index * width for index, key in enumerate(self._shifts)}
        self._width = width
        self._full = (1 << width) - 1
        self._expanded.clear()
        self._primaries.clear()

    def unpack(self, node_id: int, packed: int) -> Dict[SlotKey, int]:
        """``packed``'s non-empty slices, keyed in ``node_id``'s store order.

        Only store keys with a slice are read: ``node_id`` must be packed.
        """
        shifts, full = self._shifts, self._full
        view: Dict[SlotKey, int] = {}
        for key in cast(_SlotStore, self.dht.node(node_id).store):
            shift = shifts.get(key)
            if shift is not None:
                live = (packed >> shift) & full
                if live:
                    view[key] = live
        return view

    def expand(self, positions: int) -> int:
        """Whole slices of every key whose bit is set in ``positions``."""
        slices = self._expanded.get(positions)
        if slices is None:
            full = self._full
            slices = 0
            for key, shift in self._shifts.items():
                if (positions >> key[1]) & 1:
                    slices |= full << shift
            self._expanded[positions] = slices
        return slices

    def refresh(self, node_id: int, key: SlotKey) -> None:
        """Re-read the slot at ``key`` after the round wrote to it."""
        slot = cast(RegisterSlot, self.dht.node(node_id).store[key])
        live = slot.live_mask(self.now)
        self._primaries.clear()
        packed = self._packed.get(node_id)
        if packed is None:
            return  # packed from a fresh scan on first use
        shift = self._shifts.get(key)
        if shift is None:
            shift = self._add_key(key)
        if live > self._full:
            self._widen(live.bit_length())
            packed, shift = self._packed[node_id], self._shifts[key]
        self._packed[node_id] = (packed & ~(self._full << shift)) | (live << shift)

    def primary(self, node_id: int, degree: int) -> int:
        """Live bits ``node_id`` is primary for, packed.

        The primary-bit rule, defined here only: a node is primary for
        the live bits none of its ``degree`` chain predecessors hold —
        copying only those keeps a chain at ``degree + 1`` holders
        instead of flooding the ring.  A partitioned predecessor is
        not in the view (it cannot answer), so its bits count as
        absent and the node steps up as primary for them, which is what
        lets anti-entropy re-cover a chain *during* an outage.
        """
        primary = self._primaries.get((node_id, degree))
        if primary is None:
            chain = self._chain_to(node_id, degree)
            self.pack(chain)
            packed = self._packed
            primary = packed[node_id]
            for pred in chain[:-1]:
                primary &= ~packed[pred]
            self._primaries[node_id, degree] = primary
        return primary


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
