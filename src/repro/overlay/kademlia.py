"""Simulated Kademlia overlay (Maymounkov & Mazières, IPTPS 2002).

Included to substantiate the paper's DHT-agnosticism claim: DHS runs
unchanged over this XOR-metric geometry.  A key is owned by the node
whose id minimizes ``id XOR key``; routing greedily fixes the most
significant differing bit via a bucket contact, giving the expected
``O(log N)`` hop counts (slightly above Chord's ``~0.5 log2 N`` since
bucket contacts are random subtree members rather than exact successors).

The ring-neighbour walk DHS's retry phase needs (``successor_id`` /
``predecessor_id``) uses numeric adjacency — the standard extension
Kademlia deployments add for range support — and is inherited from
:class:`~repro.overlay.dht.DHTProtocol`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.errors import ConfigurationError, EmptyOverlayError
from repro.obs import runtime as obs
from repro.overlay.dht import DHTProtocol, LookupResult
from repro.overlay.idspace import IdSpace
from repro.overlay.node import Node
from repro.overlay.stats import OpCost
from repro.sim.seeds import rng_for

__all__ = ["KademliaOverlay"]


class KademliaOverlay(DHTProtocol):
    """An N-node Kademlia-style overlay over an ``L``-bit id space."""

    def __init__(self, space: IdSpace, seed: int = 0) -> None:
        super().__init__(space)
        self._seed = seed
        self._contact_cache: Dict[Tuple[int, int], Optional[int]] = {}

    @classmethod
    def build(cls, n_nodes: int, bits: int = 64, seed: int = 0) -> "KademliaOverlay":
        """Create an overlay of ``n_nodes`` with pseudo-random ids."""
        if n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {n_nodes}")
        space = IdSpace(bits)
        if n_nodes > space.size:
            raise ConfigurationError(
                f"cannot place {n_nodes} nodes in a {bits}-bit id space"
            )
        overlay = cls(space, seed=seed)
        # Keep the id stream byte-identical to the seed behaviour; only
        # the insertion switched to one vectorized bulk merge.
        rng = rng_for(seed, "kademlia-ids")
        seen: set[int] = set()
        while len(seen) < n_nodes:
            candidate = rng.randrange(space.size)
            if candidate not in seen:
                seen.add(candidate)
        overlay.add_nodes_bulk(seen)
        return overlay

    @classmethod
    def from_ids(cls, node_ids: Iterable[int], bits: int = 64, seed: int = 0) -> "KademliaOverlay":
        """Create an overlay from explicit node ids."""
        overlay = cls(IdSpace(bits), seed=seed)
        overlay.add_nodes_bulk(node_ids)
        if overlay.size == 0:
            raise ConfigurationError("from_ids needs at least one node id")
        return overlay

    # ------------------------------------------------------------------
    # Membership (invalidate bucket contacts on churn).
    # ------------------------------------------------------------------
    def add_node(self, node_id: int) -> Node:
        self._contact_cache.clear()
        return super().add_node(node_id)

    def remove_node(self, node_id: int, graceful: bool = True) -> None:
        self._contact_cache.clear()
        super().remove_node(node_id, graceful=graceful)

    def _on_bulk_join(self) -> None:
        self._contact_cache.clear()

    # ------------------------------------------------------------------
    # Geometry.
    # ------------------------------------------------------------------
    def owner_of(self, key: int) -> int:
        """The live node minimizing ``id XOR key``.

        Uses the fact that nodes sharing a bit prefix form a contiguous
        run of the sorted id list, descending one bit per step.
        """
        if not self._ids:
            raise EmptyOverlayError("overlay has no live nodes")
        key = self.space.wrap(key)
        lo, hi = 0, len(self._ids)
        prefix = 0
        for b in range(self.space.bits - 1, -1, -1):
            if hi - lo == 1:
                break
            mid = self._ids.bisect_left(prefix | (1 << b), lo, hi)
            if (key >> b) & 1:
                if mid < hi:
                    lo, prefix = mid, prefix | (1 << b)
                else:
                    hi = mid
            else:
                if mid > lo:
                    hi = mid
                else:
                    lo, prefix = mid, prefix | (1 << b)
        return self._ids[lo]

    def _bucket_range(self, node_id: int, i: int) -> Tuple[int, int]:
        """Sorted-list index range of bucket ``i``'s sibling subtree."""
        base = ((node_id >> i) ^ 1) << i
        lo = self._ids.bisect_left(base)
        hi = self._ids.bisect_left(base + (1 << i))
        return lo, hi

    def bucket_contact(self, node_id: int, i: int) -> Optional[int]:
        """The (cached, pseudo-random) contact in bucket ``i`` of a node.

        Bucket ``i`` holds nodes at XOR distance in ``[2^i, 2^(i+1))`` —
        the subtree that agrees with ``node_id`` above bit ``i`` and
        differs at bit ``i``.  Returns ``None`` when the subtree is empty.
        """
        cache_key = (node_id, i)
        if cache_key in self._contact_cache:
            return self._contact_cache[cache_key]
        lo, hi = self._bucket_range(node_id, i)
        if lo >= hi:
            contact: Optional[int] = None
        else:
            rng = rng_for(self._seed, "kademlia-bucket", node_id, i)
            contact = self._ids[rng.randrange(lo, hi)]
        self._contact_cache[cache_key] = contact
        return contact

    def lookup(self, key: int, origin: Optional[int] = None) -> LookupResult:
        """Greedy XOR routing from ``origin`` to the owner of ``key``."""
        if not self._ids:
            raise EmptyOverlayError("overlay has no live nodes")
        key = self.space.wrap(key)
        if origin is None:
            origin = self._ids[0]
        current = origin
        trace = self.trace
        cost = OpCost(nodes_visited=[origin] if trace else [], lookups=1)
        self.load.record(origin)
        destination = self.owner_of(key)
        #: Greedy-routing goal: the key itself, unless a vetoed-eviction
        #: fallback re-pins the destination to a nearby responsive node —
        #: routing then converges on that node's own id.
        target = key
        while True:
            if not self.node_responsive(destination):
                cost.hops += 1
                cost.messages += 1
                cost.timeouts += 1
                self.timeout_repair(destination)
                if self.has_node(destination):
                    # Eviction vetoed (transient outage): settle on the
                    # first responsive ring neighbour and route to it.
                    destination = self._next_responsive(destination, cost)
                    target = destination
                else:
                    destination = self.owner_of(key)
                continue
            if current == destination:
                break
            i = (current ^ target).bit_length() - 1
            contact = self.bucket_contact(current, i)
            if contact is None:
                # No node shares target's bit i in this subtree, yet the
                # destination is closer than current — impossible unless
                # the owner is current's numeric twin; fall back directly.
                contact = destination
            if not self.node_responsive(contact):
                cost.hops += 1
                cost.messages += 1
                cost.timeouts += 1
                self.timeout_repair(contact)
                if self.has_node(contact):
                    # Eviction vetoed: skip the cached contact and hop
                    # straight to the (responsive) destination.
                    current = destination
                    cost.hops += 1
                    cost.messages += 1
                    if trace:
                        cost.nodes_visited.append(current)
                    self.load.record(current)
                continue
            current = contact
            cost.hops += 1
            cost.messages += 1
            if trace:
                cost.nodes_visited.append(current)
            self.load.record(current)
            if cost.hops > 4 * self.space.bits:
                raise RuntimeError("XOR routing failed to converge")
        if obs.METERING:
            obs.METRICS.observe("dhs.lookup.hops", cost.hops)
        return LookupResult(node_id=destination, cost=cost)
