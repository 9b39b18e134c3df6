"""Naive reference for Chord routing (not a test module).

A deliberately slow transcription of Chord's own definitions (Stoica et
al., SIGCOMM 2001), kept so ``ChordRing.lookup``'s closed-form hop is
checked against something that shares none of its shortcuts:

* ``successor(x)`` is a linear scan over the sorted membership — no
  bisect, no ``SortedIdArray`` primitive;
* every hop builds the current node's full ``L``-entry finger table
  (``successor(n + 2^i)`` for every ``i``) and picks the closest
  preceding finger by scanning ``i = L-1 .. 0``;
* the membership is re-read from ``node_ids()`` at every step, so
  nothing is carried across an eviction;
* the destination's and the next hop's responsiveness are asked on
  every hop, never remembered.

The timeout / evict / veto / successor-list handling is the routing
contract of ``ChordRing.lookup`` written out a second time against the
public :class:`~repro.overlay.dht.DHTProtocol` surface (``node_ids``,
``node_responsive``, ``timeout_repair``, ``has_node``, ``load``) — it
runs on a bare ring or on a ``FaultInjector`` alike, and mutates the
overlay it is handed exactly as a real lookup would (evictions, load
counts).  Only the error types come from the package.
"""

from dataclasses import dataclass, field
from typing import List

from repro.errors import EmptyOverlayError, LookupFailedError


@dataclass
class Route:
    """What one routed lookup reports (the compared fields)."""

    node_id: int
    hops: int = 0
    messages: int = 0
    timeouts: int = 0
    nodes_visited: List[int] = field(default_factory=list)


def members(dht):
    """The live membership as a sorted list of Python ints."""
    return sorted(int(n) for n in dht.node_ids())


def successor(ids, x, size):
    """First member at or after ``x`` (mod ``size``), wrapping."""
    if not ids:
        raise EmptyOverlayError("overlay has no live nodes")
    x %= size
    for n in ids:
        if n >= x:
            return n
    return ids[0]


def finger_table(ids, n, bits):
    """All ``bits`` fingers of ``n``: ``successor(n + 2^i)``."""
    return [successor(ids, n + 2**i, 2**bits) for i in range(bits)]


def closest_preceding_finger(ids, n, key, bits):
    """Highest finger of ``n`` strictly inside ``(n, key)``, or None."""
    size = 2**bits
    span = (key - n) % size
    table = finger_table(ids, n, bits)
    for i in range(bits - 1, -1, -1):
        if 0 < (table[i] - n) % size < span:
            return table[i]
    return None


def _timeout(route):
    route.hops += 1
    route.messages += 1
    route.timeouts += 1


def _hop(dht, route, node_id):
    route.hops += 1
    route.messages += 1
    route.nodes_visited.append(node_id)
    dht.load.record(node_id)


def next_responsive(dht, node_id, route):
    """First responsive member clockwise of ``node_id``; one timeout hop
    and one eviction attempt per unresponsive node on the way."""
    size = dht.space.size
    current = node_id
    for _ in range(len(members(dht)) + 1):
        candidate = successor(members(dht), current + 1, size)
        if dht.node_responsive(candidate):
            return candidate
        _timeout(route)
        dht.timeout_repair(candidate)
        current = candidate
    raise LookupFailedError("no responsive node reachable on the ring")


def lookup(dht, key, origin):
    """Route ``key`` from ``origin`` over ``dht``'s membership."""
    bits = dht.space.bits
    size = 2**bits
    key %= size
    # An empty ring fails before anything is charged: no node took part.
    destination = successor(members(dht), key, size)
    route = Route(node_id=-1, nodes_visited=[origin])
    dht.load.record(origin)
    current = origin
    while True:
        if not dht.node_responsive(destination):
            _timeout(route)
            dht.timeout_repair(destination)
            if dht.has_node(destination):  # eviction vetoed
                destination = next_responsive(dht, destination, route)
            else:
                destination = successor(members(dht), key, size)
            continue
        if current == destination:
            route.node_id = destination
            return route
        ids = members(dht)
        nxt = closest_preceding_finger(ids, current, key, bits)
        if nxt is None:
            nxt = successor(ids, current + 1, size)
        if not dht.node_responsive(nxt):
            _timeout(route)
            dht.timeout_repair(nxt)
            if dht.has_node(nxt):  # eviction vetoed: relay past it
                current = next_responsive(dht, nxt, route)
                _hop(dht, route, current)
            else:
                destination = successor(members(dht), key, size)
            continue
        current = nxt
        _hop(dht, route, current)
        if route.hops > 2 * bits + len(ids):
            raise RuntimeError("oracle routing failed to converge")
