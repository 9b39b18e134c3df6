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

from bisect import bisect_left as _bisect_left
from typing import Iterable, Optional, Tuple

from repro.errors import ConfigurationError, EmptyOverlayError
from repro.overlay.dht import DHTProtocol, LookupResult
from repro.overlay.idspace import IdSpace
from repro.sim.seeds import rng_for

__all__ = ["KademliaOverlay"]

#: What the contact memo answers for a bucket it has not drawn yet
#: (``None`` marks an empty bucket); no member id is negative.
_MISS = -1


class KademliaOverlay(DHTProtocol):
    """An N-node Kademlia-style overlay over an ``L``-bit id space."""

    def __init__(self, space: IdSpace, seed: int = 0) -> None:
        super().__init__(space)
        self._seed = seed

    @classmethod
    def build(cls, n_nodes: int, bits: int = 64, seed: int = 0) -> "KademliaOverlay":
        """Create an overlay of ``n_nodes`` with pseudo-random ids."""
        ids = cls._draw_ids(n_nodes, bits, seed, "kademlia-ids")
        return cls.from_ids(ids, bits=bits, seed=seed)

    @classmethod
    def from_ids(cls, node_ids: Iterable[int], bits: int = 64, seed: int = 0) -> "KademliaOverlay":
        """Create an overlay from explicit node ids."""
        overlay = cls(IdSpace(bits), seed=seed)
        overlay.add_nodes_bulk(node_ids)
        if overlay.size == 0:
            raise ConfigurationError("from_ids needs at least one node id")
        return overlay

    # ------------------------------------------------------------------
    # Geometry.
    # ------------------------------------------------------------------
    def owner_of(self, key: int) -> int:
        """The live node minimizing ``id XOR key``.

        A neighbour-and-flip descent.  The member sharing the longest
        bit prefix with ``key`` is one of its two numeric neighbours,
        found with one bisect.  Let ``d`` be the first bit where that
        member differs from ``key``: no member sharing ``key``'s bits
        above ``d`` has ``key``'s value at ``d``, so all of them sit in
        the member's subtree below ``d``, and ``key`` with bit ``d``
        flipped has the same owner.  A member alone in that subtree is
        the owner; otherwise flip the bit and repeat.  Each round fixes
        one more prefix bit, so there are at most ``L`` rounds; a random
        key on a 1,024-node ring takes 1.4 bisects on average.
        """
        ids = self._ids.buffer
        n = len(ids)
        if not n:
            raise EmptyOverlayError("overlay has no live nodes")
        key &= self._size_mask
        while True:
            i = _bisect_left(ids, key)
            if i < n:
                member = ids[i]
                if member == key:
                    return member
                if i and ids[i - 1] ^ key < member ^ key:
                    i -= 1
                    member = ids[i]
            else:
                i -= 1
                member = ids[i]
            bit = 1 << ((member ^ key).bit_length() - 1)
            if (i == 0 or ids[i - 1] ^ member >= bit) and (
                i + 1 == n or ids[i + 1] ^ member >= bit
            ):
                return member
            key ^= bit

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

    def _next_hop(self, current: int, target: int, destination: int) -> int:
        """The bucket contact fixing the top bit ``current`` and ``target`` differ in."""
        bucket = (current ^ target).bit_length() - 1
        contact = self._contact_cache.get((current, bucket), _MISS)
        if contact == _MISS:
            contact = self.bucket_contact(current, bucket)
        # An empty bucket means no node shares target's bit in this
        # subtree, yet the destination is closer than current —
        # impossible unless the owner is current's numeric twin; fall
        # back directly.
        return destination if contact is None else contact

    def lookup(self, key: int, origin: Optional[int] = None) -> LookupResult:
        """Greedy XOR routing from ``origin`` to the owner of ``key``."""
        return self._route(key, origin, self._next_hop)
