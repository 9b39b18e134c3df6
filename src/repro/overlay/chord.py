"""Simulated Chord ring (Stoica et al., SIGCOMM 2001).

A node with id ``n`` is responsible for the keys in ``(pred(n), n]``.
Routing is the classic iterative walk: each step jumps to the closest
finger preceding the key, where finger ``i`` of node ``n`` is
``successor(n + 2^i)``.  Fingers model an ideally-stabilized ring — the
same idealization the paper's evaluation makes — so hop counts land at
the expected ``~0.5 * log2 N`` without simulating stabilization chatter.

No finger table is stored.  Finger ``i`` of ``n`` lies strictly between
``n`` and ``key`` exactly when some member lies in ``[n + 2^i, key)``,
that is when ``2^i <= reach``, where ``reach`` is the clockwise distance
from ``n`` to the last member before ``key``.  The closest preceding
finger is therefore ``successor(n + 2^floor(log2 reach))``: one bisect
on the live membership per hop, hop-for-hop the scan over
``i = L-1 .. 0`` that ``tests/overlay/chord_oracle.py`` keeps as the
reference (see docs/PERFORMANCE.md section 1).

Every hop is a function of ``current`` and ``last``, the owner's
predecessor, so from a member origin the whole route is a function of
``(origin, owner)`` and the membership: the key adds nothing once the
owner is known.  Counting looks the same few thousand pairs up over and
over, so :meth:`ChordRing.lookup` memoises the route per pair in
``DHTProtocol._route_cache``, as the tuple of nodes it visits from the
origin on.  The memo has one invalidation: any join, leave or lazy
failure clears it whole.  Every lookup, walked (in a ``finally``) or
replayed, charges its nodes, origin first, with one
:meth:`~repro.overlay.stats.LoadTracker.record_path` call: the same
counts, in the same order, as one ``record`` per hop.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional, Tuple

from repro.errors import ConfigurationError, EmptyOverlayError
from repro.obs import runtime as obs
from repro.overlay.dht import DHTProtocol, LookupResult
from repro.overlay.idspace import IdSpace
from repro.overlay.stats import OpCost

__all__ = ["ChordRing"]

#: Entries (routes and seen-once marks) at which the route memo is
#: cleared whole.  A count's working set is a few owners per querying
#: node: 3,072 pairs at N = 1024.  On larger rings a run rarely sees a
#: pair again before the clear (docs/PERFORMANCE.md section 14), and the
#: flat cap keeps the memo's memory the same at any N.
ROUTE_CACHE_CAP = 4096

#: What the route memo answers for a pair it has never seen (``None``
#: marks a pair seen once); no route holds a negative id.
_UNSEEN: Tuple[int, ...] = (-1,)


class ChordRing(DHTProtocol):
    """An N-node Chord overlay over an ``L``-bit id space.

    Parameters
    ----------
    space:
        The identifier space.
    trace:
        When true, lookups record the full ``nodes_visited`` path in
        their :class:`~repro.overlay.stats.OpCost` (off by default —
        the counters are kept either way).
    """

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        n_nodes: int,
        bits: int = 64,
        seed: int = 0,
        trace: bool = False,
    ) -> "ChordRing":
        """Create a ring of ``n_nodes`` with pseudo-random ids."""
        ids = cls._draw_ids(n_nodes, bits, seed, "chord-ids")
        return cls.from_ids(ids, bits=bits, trace=trace)

    @classmethod
    def from_ids(
        cls, node_ids: Iterable[int], bits: int = 64, trace: bool = False
    ) -> "ChordRing":
        """Create a ring from explicit node ids (tests, edge cases)."""
        ring = cls(IdSpace(bits), trace=trace)
        ring.add_nodes_bulk(node_ids)
        if ring.size == 0:
            raise ConfigurationError("from_ids needs at least one node id")
        return ring

    # ------------------------------------------------------------------
    # Geometry.
    # ------------------------------------------------------------------
    def owner_of(self, key: int) -> int:
        """``successor(key)``: the first live node at or after ``key``."""
        if not self._ids:
            raise EmptyOverlayError("overlay has no live nodes")
        return self._ids.first_at_or_after(key & self._size_mask)

    def finger(self, node_id: int, i: int) -> int:
        """Finger ``i`` of ``node_id``: ``successor(node_id + 2^i)``."""
        return self.owner_of(node_id + (1 << i))

    def lookup(self, key: int, origin: Optional[int] = None) -> LookupResult:
        """Iteratively route ``key`` to its owner, counting hops.

        ``origin`` defaults to the lowest live id, but callers doing
        cost experiments should pass an explicit querying node.  A
        lookup starting at the owner itself costs 0 hops.

        With no fault layer installed, a route already walked twice
        from a member origin to the same owner is replayed from the
        route memo: same hops, messages, path and ``load`` charges.
        """
        ids = self._ids
        if not ids:
            raise EmptyOverlayError("overlay has no live nodes")
        size_mask = self._size_mask
        key &= size_mask
        if origin is None:
            origin = ids[0]
        elif not 0 <= origin <= size_mask:
            raise ValueError(f"origin {origin} is outside the {self.space.bits}-bit id space")
        trace = self.trace
        destination = ids.first_at_or_after(key)
        fault = self.fault_layer
        memo = self._route_cache if fault is None else None
        admit = False
        if memo is not None:
            pair = (origin, destination)
            stored = memo.get(pair, _UNSEEN)
            if stored is not None and stored is not _UNSEEN:
                # The stored path starts at the origin.
                self.load.record_path(stored)
                hops = len(stored) - 1
                if obs.METERING:
                    obs.METRICS.observe("dhs.lookup.hops", hops)
                return LookupResult(
                    node_id=destination,
                    cost=OpCost(
                        hops=hops,
                        messages=hops,
                        nodes_visited=list(stored) if trace else [],
                        lookups=1,
                    ),
                )
            # Second sighting: walk it once more, keeping the path.  A
            # non-member's first hop depends on the key, so only a
            # member origin's route is stored.
            admit = stored is None and origin in ids
        # The visited nodes: the trace, the memo's route, the load charge.
        path = [origin]
        cost = OpCost(nodes_visited=path if trace else [], lookups=1)
        current = origin
        responsive = self.node_responsive
        nodes = self._nodes
        buf = ids.buffer
        # Convergence bound, on the membership at entry (evictions on
        # the way only shrink it).  Only timeouts charge ``cost.hops``
        # inside the loop: the routed hops are ``len(path) - 1``.
        max_visits = 2 * self.space.bits + len(ids) + 1
        # Whether ``destination`` has answered and ``last`` been taken
        # since the membership last changed.  ``responsive`` is a pure
        # read and a plain hop mutates nothing, so both hold until a
        # branch below repairs or re-resolves.
        resolved = False
        try:
            while True:
                if not resolved:
                    if not responsive(destination):
                        # Timed-out contact with the owner: pay the probe,
                        # evict it, and re-resolve — repeating for every
                        # consecutive dead heir — before resuming the
                        # route.  When the fault layer vetoes the eviction
                        # (transient outage), the route settles on the
                        # owner's first responsive successor instead,
                        # exactly as a Chord successor list would be used.
                        cost.hops += 1
                        cost.messages += 1
                        cost.timeouts += 1
                        self.timeout_repair(destination)
                        if self.has_node(destination):
                            destination = self._next_responsive(destination, cost)
                        else:
                            destination = self.owner_of(key)
                        continue
                    # Last member strictly before ``key``: with it every
                    # hop of the route is one bisect.
                    last = ids.last_before(key)
                    resolved = True
                if current == destination:
                    break
                reach = (last - current) & size_mask
                if 0 < reach < ((key - current) & size_mask):
                    # Closest preceding finger: the largest 2^i <= reach.
                    at = (current + (1 << (reach.bit_length() - 1))) & size_mask
                else:
                    # No member in (current, key): last hop, to the successor.
                    at = current + 1
                index = bisect_left(buf, at)
                nxt = buf[index] if index < len(buf) else buf[0]
                # ``nxt`` is a member: unmaterialized, it is alive.
                if nxt != destination and not (
                    (node := nodes.get(nxt)) is None or node.alive
                    if fault is None else responsive(nxt)
                ):
                    cost.hops += 1
                    cost.messages += 1
                    cost.timeouts += 1
                    self.timeout_repair(nxt)
                    resolved = False
                    if self.has_node(nxt):
                        # Eviction vetoed: relay through the unresponsive
                        # node's first responsive successor (known from
                        # its successor list), paying the routed hop to it.
                        current = self._next_responsive(nxt, cost)
                        path.append(current)
                    else:
                        destination = self.owner_of(key)
                    continue
                current = nxt
                path.append(current)
                if len(path) + cost.hops > max_visits:
                    raise RuntimeError("routing failed to converge; ring corrupt?")
        finally:
            self.load.record_path(path)
        routed = len(path) - 1
        cost.hops += routed
        cost.messages += routed
        # With no fault layer every timeout evicted a node, which cleared
        # the memo: only a clean route is remembered.
        if memo is not None and not cost.timeouts:
            if len(memo) >= ROUTE_CACHE_CAP:
                memo.clear()
            memo[pair] = tuple(path) if admit else None
        if obs.METERING:
            obs.METRICS.observe("dhs.lookup.hops", cost.hops)
        return LookupResult(node_id=destination, cost=cost)
