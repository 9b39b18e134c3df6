"""Successor-list replication (paper section 3.5).

When inserting or refreshing a DHS bit, the set bit is copied to ``R``
successors of the storing node; a counting probe that hits a failed or
empty node can then walk up to ``R`` successors before declaring the bit
unset.  Each replica write costs one extra hop (the successors are direct
neighbours), so insertion stays ``O(log N)`` total for constant ``R``.
"""

from __future__ import annotations

import heapq
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Protocol,
    Set,
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
#: The expiry of what never expires.
_NEVER = float("inf")


class RegisterSlot(Protocol):
    """Duck type of a DHS register slot (``PackedSlot`` / ``RegSlot``).

    The overlay never imports the core slot classes (layering); it only
    relies on this surface, which both backends provide.
    """

    mask: int
    expiring: Optional[Dict[int, float]]

    def live_mask(self, now: int) -> int: ...

    def live_span(self, now: int) -> Tuple[int, float]: ...


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
    """Replica chains and live register state, kept up to date across rounds.

    The chain members are the nodes that answer right now: anti-entropy
    and the divergence gauge chain only over peers they can exchange
    messages with, so a corpse or a partitioned node is skipped.  They
    are listed once, sorted, and a node's neighbours are read off that
    list by index, wrap-around stop included (a node has at most
    ``len(ids) - 1`` neighbours).  A view therefore serves one
    membership: it keeps the deployment's
    :attr:`~repro.overlay.node.Stamp.membership` it was built at, and
    :meth:`advance` refuses once that moved (or ``now`` went back), so
    the keeper builds a fresh view then.

    A node's live register state is one packed Python int
    (:meth:`packed`): every ``(metric, bit)`` key the view meets gets a
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

    Between rounds, :meth:`advance` moves the view to a later ``now``
    and re-packs two kinds of node only: those whose store changed
    since the view last read it (``Node.changed`` past the stamp value
    the view read), and those where ``now`` passed the earliest expiry
    of their live TTL'd entries.  A re-pack that yields the same int
    invalidates nothing.

    For one chain degree (:meth:`track`), pair ``p`` is initiator
    ``ids[p // fanout]`` and its ``p % fanout``-th chain successor, in
    the order a round checks them.  A pair's checks read only the packed
    ints of its initiator, of the initiator's ``degree`` predecessors and
    of its successor, so :attr:`dirty` holds every pair that must be
    checked again, mapped to its divergence contribution once the gauge
    computed it: a pair leaves it when a round finds it converged (a
    converged pair misses no copy), and re-enters when one of those
    ints changes.  A fresh view has every pair dirty.
    """

    def __init__(self, dht: DHTProtocol, now: int) -> None:
        self.dht = dht
        self.now = now
        #: The membership counter this view's chains were listed at.
        self._membership = dht.stamp.membership
        #: The stamp value up to which every packed store was read.
        self._seen = dht.stamp.value
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
        #: packed int changes or the width does.
        self._primaries: Dict[Tuple[int, int], int] = {}
        #: Per packed node with a live TTL'd entry, the last tick its
        #: int holds through, and a heap of those ticks.
        self._until: Dict[int, float] = {}
        self._expiries: List[Tuple[float, int]] = []
        #: The tracked chain degree, and chain successors per initiator.
        self._degree = 0
        self.fanout = 0
        #: Pairs to check again -> divergence contribution (``None``
        #: until the gauge computes it).
        self.dirty: Dict[int, Optional[int]] = {}
        #: While a round runs, every pair it makes dirty, in order.
        self.touched: Optional[List[int]] = None
        #: The walk visibility the round's caller derived for this
        #: membership; it lives exactly as long as the view does.
        self.visible: Optional[Callable[[int], int]] = None

    def advance(self, now: int) -> bool:
        """Bring the view to ``now``; ``False`` if it cannot follow.

        It cannot once the membership counter moved or ``now`` is
        earlier than the view's (an expired entry may live again).
        Otherwise it re-packs the nodes whose store changed or whose
        earliest live expiry ``now`` passed, and marks the pairs that
        read a changed int dirty.
        """
        dht = self.dht
        stamp = dht.stamp
        if stamp.membership != self._membership or now < self.now:
            return False
        self.now = now
        packed = self._packed
        stale: Set[int] = set()
        if stamp.value != self._seen:
            for node in dht.nodes_changed_since(self._seen):
                if node.node_id in packed:
                    stale.add(node.node_id)
            self._seen = stamp.value
        expiries, until = self._expiries, self._until
        while expiries and expiries[0][0] < now:
            at, node_id = heapq.heappop(expiries)
            if until.get(node_id) == at:
                stale.add(node_id)
        for node_id in sorted(stale):
            old, width = packed.pop(node_id), self._width
            if self.packed(node_id) != old or self._width != width:
                self._touch(node_id)
        return True

    def track(self, degree: int) -> int:
        """Track pairs at chain ``degree``; returns the successors per initiator.

        A new degree makes every pair dirty.
        """
        if degree != self._degree:
            self._degree = degree
            self.fanout = max(0, min(degree, len(self.ids) - 1))
            self.dirty = dict.fromkeys(range(len(self.ids) * self.fanout))
        return self.fanout

    def index(self, node_id: int) -> int:
        """``node_id``'s position in :attr:`ids`."""
        return self._index[node_id]

    def pair(self, pair: int) -> Tuple[int, int]:
        """Initiator and chain successor of tracked pair ``pair``."""
        index, step = divmod(pair, self.fanout)
        return self.ids[index], self._laps[index + 1 + step]

    def _touch(self, node_id: int) -> None:
        """``node_id``'s packed int changed: its pairs are dirty again.

        Those are ``node_id``'s own pairs, every pair of the initiators
        it is a chain predecessor of, and the pairs whose successor it is.
        """
        self._primaries.clear()
        fanout = self.fanout
        index = self._index.get(node_id)
        if not fanout or index is None:
            return
        size = len(self.ids)
        pairs: List[int] = []
        for step in range(fanout + 1):
            base = (index + step) % size * fanout
            pairs.extend(range(base, base + fanout))
        for step in range(fanout):
            pairs.append((index - 1 - step) % size * fanout + step)
        dirty = self.dirty
        for pair in pairs:
            dirty[pair] = None
        if self.touched is not None:
            self.touched.extend(pairs)

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
            self._expire(node_id, _NEVER)
            return 0
        packed = widest = 0
        until = _NEVER
        for key, value in cast(_SlotStore, node.store).items():
            shift = shifts.get(key)
            if shift is None:
                if not is_slot_key(key):
                    continue
                shift = self._add_key(key)
            live_span = getattr(value, "live_span", None)
            if live_span is not None:
                live, expires = live_span(now)
                widest |= live
                packed |= live << shift
                if expires < until:
                    until = expires
        if widest > self._full:  # a slice bled into its neighbour
            self._widen(widest.bit_length())
            return self._pack(node_id)
        self._expire(node_id, until)
        return packed

    def _expire(self, node_id: int, until: float) -> None:
        """Re-pack ``node_id`` once ``now`` passes ``until``."""
        if until == _NEVER:
            self._until.pop(node_id, None)
        elif self._until.get(node_id) != until:
            self._until[node_id] = until
            heapq.heappush(self._expiries, (until, node_id))

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
        packed = self._packed.get(node_id)
        if packed is None:
            return  # packed from a fresh scan on first use
        shift = self._shifts.get(key)
        if shift is None:
            shift = self._add_key(key)
        width = self._width
        if live > self._full:
            self._widen(live.bit_length())
            packed, shift = self._packed[node_id], self._shifts[key]
        fresh = (packed & ~(self._full << shift)) | (live << shift)
        if fresh != packed or self._width != width:
            self._packed[node_id] = fresh
            self._touch(node_id)

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

    def divergence(self, degree: int) -> int:
        """Missing copies over every tracked pair at ``degree``: the gauge.

        A pair's contribution is the count of its initiator's primary
        bits its successor lacks.  A pair out of :attr:`dirty` was found
        converged and has not changed since, so it contributes 0; a
        dirty one keeps its contribution until one of its ints changes.
        """
        self.track(degree)
        dirty = self.dirty
        stale = [pair for pair, missing in dirty.items() if missing is None]
        if len(stale) >= len(self.ids):
            self.pack(self.ids)  # one pass rather than chain by chain
        packed = self._packed
        for pair in stale:
            node_id, replica = self.pair(pair)
            self.pack((replica,))
            dirty[pair] = (self.primary(node_id, degree) & ~packed[replica]).bit_count()
        return sum(missing for missing in dirty.values() if missing)


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
