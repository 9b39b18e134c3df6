"""Naive references for Kademlia and Pastry routing (not a test module).

The companion of ``chord_oracle.py`` for the two geometries that route
through ``DHTProtocol._route``.  Everything is a linear scan over the
sorted membership, re-read from ``node_ids()`` at every step:

* a Kademlia owner is the XOR-minimum of the list, a Pastry owner the
  numerically closest member (ties to the lower id);
* a bucket or a routing-table cell is a list filter over the members'
  bits or digits — no bisect, no prefix arithmetic on index ranges;
* a contact is computed afresh on every hop from the same
  ``rng_for`` label and the same index draw the package pins, so a memo
  that survives a membership change shows up as a different route;
* a Pastry leaf set is eight ``successor`` scans and eight predecessor
  scans, in that order (the order breaks distance ties).

``route`` is the timeout / evict / veto contract of
``DHTProtocol._route`` written out a second time against the public
overlay surface, as ``chord_oracle.lookup`` is for Chord; it differs
from Chord's in the two places the geometries differ: a vetoed owner
re-pins the routing *target* to the heir's id, and a vetoed contact is
bypassed by one direct hop to the destination.  Each fault branch taken
is recorded in ``Route.branches`` so a differential can assert its
generator reached them all.

``cursor_walk`` is the reference for ``DHTProtocol.interval_owners``:
Algorithm 1's walk order as the counting loop spelled it with a
successor and a predecessor cursor, over linear scans.
"""

from dataclasses import dataclass, field
from typing import List

from repro.errors import EmptyOverlayError
from repro.sim.seeds import rng_for
from tests.overlay.chord_oracle import Route as _ChordRoute
from tests.overlay.chord_oracle import (
    _hop,
    _timeout,
    members,
    next_responsive,
    successor,
)

LEAF_SET_HALF = 8


@dataclass
class Route(_ChordRoute):
    """The compared fields plus the fault branches the route took."""

    branches: List[str] = field(default_factory=list)


def _drawn(ids, group, *label):
    """The member of ``group`` (a contiguous run of ``ids``) at the
    sorted-membership index the labelled stream draws."""
    if not group:
        return None
    lo = ids.index(group[0])
    return ids[rng_for(*label).randrange(lo, lo + len(group))]


# ----------------------------------------------------------------------
# Kademlia.
# ----------------------------------------------------------------------
def kademlia_owner(ids, key):
    if not ids:
        raise EmptyOverlayError("overlay has no live nodes")
    return min(ids, key=lambda n: n ^ key)


def bucket(ids, n, i):
    """Members at XOR distance ``[2^i, 2^(i+1))`` from ``n``."""
    return [m for m in ids if 2**i <= m ^ n < 2 ** (i + 1)]


def bucket_contact(ids, n, i, seed):
    return _drawn(ids, bucket(ids, n, i), seed, "kademlia-bucket", n, i)


def kademlia_lookup(dht, key, origin, seed=0):
    def next_hop(ids, current, target, destination):
        top = max(i for i in range(dht.space.bits) if (current ^ target) >> i & 1)
        contact = bucket_contact(ids, current, top, seed)
        return destination if contact is None else contact

    return route(dht, key, origin, kademlia_owner, next_hop)


# ----------------------------------------------------------------------
# Pastry.
# ----------------------------------------------------------------------
def digits_of(x, bits, digit_bits):
    """``x`` as base-``2^digit_bits`` digits, most significant first."""
    base = 2**digit_bits
    return [(x // base**p) % base for p in range(bits // digit_bits - 1, -1, -1)]


def shared_digits(a, b, bits, digit_bits):
    count = 0
    for x, y in zip(digits_of(a, bits, digit_bits), digits_of(b, bits, digit_bits)):
        if x != y:
            break
        count += 1
    return count


def circular(a, b, size):
    return min((a - b) % size, (b - a) % size)


def pastry_owner(ids, key, size):
    if not ids:
        raise EmptyOverlayError("overlay has no live nodes")
    return min(ids, key=lambda n: (circular(n, key, size), n))


def cell(ids, key, row, bits, digit_bits):
    """Members sharing ``row + 1`` leading digits with ``key``."""
    prefix = digits_of(key, bits, digit_bits)[: row + 1]
    return [m for m in ids if digits_of(m, bits, digit_bits)[: row + 1] == prefix]


def routing_contact(ids, n, key, bits, digit_bits, seed):
    row = shared_digits(n, key, bits, digit_bits)
    group = cell(ids, key, row, bits, digit_bits)
    # ``n`` differs from ``key`` at digit ``row``: it is never in the cell.
    assert n not in group
    value = 0  # the stream label: key's first ``row + 1`` digits as a number
    for digit in digits_of(key, bits, digit_bits)[: row + 1]:
        value = value * 2**digit_bits + digit
    return _drawn(ids, group, seed, "pastry-cell", n, value)


def predecessor(ids, x):
    """Last member strictly before ``x``, wrapping to the highest."""
    return max((m for m in ids if m < x), default=ids[-1])


def leaf_set(ids, n, size):
    reach = min(LEAF_SET_HALF, len(ids) - 1)
    leaves, cursor = [], n
    for _ in range(reach):
        cursor = successor(ids, cursor + 1, size)
        leaves.append(cursor)
    cursor = n
    for _ in range(reach):
        cursor = predecessor(ids, cursor)
        leaves.append(cursor)
    return leaves or [n]


def pastry_lookup(dht, key, origin, digit_bits=4, seed=0):
    bits, size = dht.space.bits, dht.space.size

    def shared(a, b):
        return shared_digits(a, b, bits, digit_bits)

    def next_hop(ids, current, target, destination):
        contact = routing_contact(ids, current, target, bits, digit_bits, seed)
        if contact is not None and shared(contact, target) > shared(current, target):
            return contact
        nxt = min(leaf_set(ids, current, size), key=lambda n: circular(n, target, size))
        if circular(nxt, target, size) >= circular(current, target, size):
            return destination  # equidistant twin
        return nxt

    return route(dht, key, origin, lambda ids, k: pastry_owner(ids, k, size), next_hop)


# ----------------------------------------------------------------------
# The routed lookup both share.
# ----------------------------------------------------------------------
def route(dht, key, origin, owner, next_hop):
    """Route ``key`` from ``origin``; ``owner(ids, key)`` and
    ``next_hop(ids, current, target, destination)`` are the geometry."""
    bits = dht.space.bits
    key %= 2**bits
    result = Route(node_id=-1, nodes_visited=[origin])
    dht.load.record(origin)
    current = origin
    destination = owner(members(dht), key)
    target = key
    while True:
        if not dht.node_responsive(destination):
            _timeout(result)
            dht.timeout_repair(destination)
            if dht.has_node(destination):
                result.branches.append("owner-vetoed")
                destination = next_responsive(dht, destination, result)
                target = destination  # route to the heir, not to the key
            else:
                result.branches.append("owner-evicted")
                destination = owner(members(dht), key)
            continue
        if current == destination:
            result.node_id = destination
            return result
        nxt = next_hop(members(dht), current, target, destination)
        if not dht.node_responsive(nxt):
            _timeout(result)
            dht.timeout_repair(nxt)
            if dht.has_node(nxt):
                result.branches.append("contact-vetoed")
                current = destination  # bypass it: one direct hop
                _hop(dht, result, current)
            else:
                result.branches.append("contact-evicted")
            continue
        current = nxt
        _hop(dht, result, current)
        if result.hops > 4 * bits:
            raise RuntimeError("oracle routing failed to converge")


# ----------------------------------------------------------------------
# The interval walk (Algorithm 1's probe order).
# ----------------------------------------------------------------------
def cursor_walk(dht, lo, hi, start):
    """The nodes a count probes for ``[lo, hi)`` from ``start``, in order.

    Two cursors: the successor cursor climbs while inside the interval
    and takes one step past its top (the overflow owner), then the
    predecessor cursor descends from ``start`` while inside it; neither
    revisits a node.  A generator that rescans the membership at every
    step, so an eviction between two steps is seen by the next one.
    """
    size = dht.space.size
    visited = {start}
    succ_cursor = pred_cursor = start
    go_to_succ = True
    yield start
    while True:
        next_target = None
        if go_to_succ and not lo <= succ_cursor < hi:
            go_to_succ = False  # sitting on the overflow owner already
        if go_to_succ:
            candidate = successor(members(dht), succ_cursor + 1, size)
            if candidate in visited:
                go_to_succ = False
            elif lo <= candidate < hi:
                succ_cursor = next_target = candidate
            else:
                succ_cursor = next_target = candidate  # the overflow owner
                go_to_succ = False
        if next_target is None:
            candidate = predecessor(members(dht), pred_cursor)
            if not lo <= candidate < hi or candidate in visited:
                return
            pred_cursor = next_target = candidate
        visited.add(next_target)
        yield next_target
