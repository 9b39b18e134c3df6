"""Simulated Pastry overlay (Rowstron & Druschel, Middleware 2001).

The third DHT geometry (the paper names Pastry alongside Chord, CAN and
Kademlia): keys live on the *numerically closest* node, and routing
fixes one base-``2^b`` digit of shared prefix per hop via a routing
table, falling back to leaf-set steps near the destination — expected
``O(log_{2^b} N)`` hops.

As with the other overlays, tables are derived on demand from the live
membership (an ideally-maintained overlay).  The numeric-neighbour walk
DHS's retry phase uses maps onto Pastry's leaf set, which is exactly the
structure real Pastry maintains.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.errors import ConfigurationError, EmptyOverlayError
from repro.overlay.dht import DHTProtocol, LookupResult
from repro.overlay.idspace import IdSpace
from repro.sim.seeds import rng_for

__all__ = ["PastryOverlay"]


class PastryOverlay(DHTProtocol):
    """An N-node Pastry-style overlay over an ``L``-bit id space."""

    def __init__(self, space: IdSpace, digit_bits: int = 4, seed: int = 0) -> None:
        super().__init__(space)
        if not 1 <= digit_bits <= 8:
            raise ConfigurationError(f"digit_bits must be in [1, 8], got {digit_bits}")
        if space.bits % digit_bits:
            raise ConfigurationError(
                f"digit_bits ({digit_bits}) must divide the id width ({space.bits})"
            )
        self.digit_bits = digit_bits
        self._seed = seed

    @classmethod
    def build(
        cls, n_nodes: int, bits: int = 64, digit_bits: int = 4, seed: int = 0
    ) -> "PastryOverlay":
        """Create an overlay of ``n_nodes`` with pseudo-random ids."""
        ids = cls._draw_ids(n_nodes, bits, seed, "pastry-ids")
        return cls.from_ids(ids, bits=bits, digit_bits=digit_bits, seed=seed)

    @classmethod
    def from_ids(
        cls, node_ids: Iterable[int], bits: int = 64, digit_bits: int = 4, seed: int = 0
    ) -> "PastryOverlay":
        """Create an overlay from explicit node ids."""
        overlay = cls(IdSpace(bits), digit_bits=digit_bits, seed=seed)
        overlay.add_nodes_bulk(node_ids)
        if overlay.size == 0:
            raise ConfigurationError("from_ids needs at least one node id")
        return overlay

    # ------------------------------------------------------------------
    # Geometry.
    # ------------------------------------------------------------------
    def _circular_distance(self, a: int, b: int) -> int:
        forward = self.space.distance(a, b)
        return min(forward, self.space.size - forward)

    def owner_of(self, key: int) -> int:
        """The numerically closest live node (ties → lower id)."""
        if not self._ids:
            raise EmptyOverlayError("overlay has no live nodes")
        key = self.space.wrap(key)
        index = self._ids.bisect_left(key)
        candidates = {
            self._ids[index % len(self._ids)],
            self._ids[index - 1],
        }
        return min(
            sorted(candidates),
            key=lambda node: self._circular_distance(node, key),
        )

    def shared_digits(self, a: int, b: int) -> int:
        """Number of leading base-``2^b`` digits ``a`` and ``b`` share."""
        n_digits = self.space.bits // self.digit_bits
        for digit in range(n_digits):
            shift = self.space.bits - (digit + 1) * self.digit_bits
            if (a >> shift) != (b >> shift):
                return digit
        return n_digits

    def _prefix_range(self, key: int, digits: int) -> Tuple[int, int]:
        """Sorted-index range of nodes sharing ``digits`` leading digits
        (and the next digit) with ``key``."""
        shift = self.space.bits - (digits + 1) * self.digit_bits
        base = (key >> shift) << shift
        lo = self._ids.bisect_left(base)
        hi = self._ids.bisect_left(base + (1 << shift))
        return lo, hi

    def routing_contact(self, node_id: int, key: int) -> Optional[int]:
        """A cached contact sharing one more digit with ``key`` than
        ``node_id`` does (None when that routing-table cell is empty)."""
        digits = self.shared_digits(node_id, key)
        # The cell is (row, prefix value): the value alone drops leading
        # zero digits, so row 0 digit d and row 1 digits 0 d would share
        # a memo entry.  The RNG label keeps the bare value (pinned).
        cell = key >> (self.space.bits - (digits + 1) * self.digit_bits)
        cache_key = (node_id, digits, cell)
        if cache_key in self._contact_cache:
            return self._contact_cache[cache_key]
        lo, hi = self._prefix_range(key, digits)
        if lo >= hi:
            contact: Optional[int] = None
        else:
            rng = rng_for(self._seed, "pastry-cell", node_id, cell)
            contact = self._ids[rng.randrange(lo, hi)]
            if contact == node_id:
                contact = self._ids[lo + (hi - lo) // 2]
                if contact == node_id:
                    contact = None
        self._contact_cache[cache_key] = contact
        return contact

    #: Leaf-set half-size (numeric neighbours kept per side).
    LEAF_SET_HALF = 8

    def _leaf_set(self, node_id: int) -> list[int]:
        """The node's leaf set: nearest neighbours on both sides."""
        leaves = []
        cursor = node_id
        for _ in range(min(self.LEAF_SET_HALF, self.size - 1)):
            cursor = self.successor_id(cursor)
            leaves.append(cursor)
        cursor = node_id
        for _ in range(min(self.LEAF_SET_HALF, self.size - 1)):
            cursor = self.predecessor_id(cursor)
            leaves.append(cursor)
        return leaves or [node_id]

    def _next_hop(self, current: int, target: int, destination: int) -> int:
        """The routing-table contact one digit closer, else a leaf-set step."""
        contact = self.routing_contact(current, target)
        if contact is not None and contact != current and (
            self.shared_digits(contact, target) > self.shared_digits(current, target)
        ):
            return contact
        # Leaf-set step: Pastry keeps ``2 * LEAF_SET_HALF`` numeric
        # neighbours; when the routing cell is empty, jump to the leaf
        # closest to the target (the destination itself once it enters
        # the leaf set).
        nxt = min(
            self._leaf_set(current),
            key=lambda node: self._circular_distance(node, target),
        )
        if self._circular_distance(nxt, target) >= self._circular_distance(current, target):
            return destination  # equidistant twin: one direct hop
        return nxt

    def lookup(self, key: int, origin: Optional[int] = None) -> LookupResult:
        """Prefix routing with leaf-set fallback, counting hops."""
        return self._route(key, origin, self._next_hop)
