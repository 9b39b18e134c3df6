"""Differential tests: Kademlia and Pastry ``lookup`` against naive oracles.

The counterpart of ``test_chord_routing_differential.py`` for the two
geometries that route through ``DHTProtocol._route``.  Every case builds
one membership twice; one copy routes with the package, the other with
``tests/overlay/routing_oracle.py`` (linear scans, contacts recomputed
from their ``rng_for`` label on every hop), and afterwards everything
observable must agree: owner, ``hops``, ``messages``, ``timeouts``, the
traced path, the membership the lookup left behind and every ``load``
count.

The generators aim at what a shared loop, a memo and a moved id draw can
get wrong: every ring of a 3-bit space exhaustively (Pastry with one-bit
digits), id widths on both sides of the 64-bit storage split, rings of
one to three nodes, ids ``0`` and ``2^L - 1``, ``key == origin``,
``origin == owner``, joins and leaves between lookups (a stale contact
memo routes differently), and a ``FaultInjector`` whose transient
victims take the veto branches (re-pin, direct hop) while its lazy
crashes take the eviction ones.  Each case routes once: unlike Chord,
neither geometry keeps a route memo that a repeat could hit.
"""

import functools
import itertools

import pytest

from repro.errors import EmptyOverlayError
from repro.overlay.chord import ChordRing
from repro.overlay.faults import FaultEvent, FaultInjector, FaultPlan
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.pastry import PastryOverlay
from repro.sim.seeds import rng_for
from tests.overlay import routing_oracle as oracle
from tests.overlay.test_chord_routing_differential import (
    _both,
    _draw_ids,
    _edge_keys,
    _route_once,
)

KINDS = ["kademlia", "pastry"]
WIDTHS = [8, 16, 64, 80]
SEED = 3


def _pair(kind, ids, bits=16, plan=None, digit_bits=4):
    """One membership twice plus the oracle that routes the second copy:
    ``(routed by the package, routed by the oracle, oracle lookup)``."""
    if kind == "kademlia":
        make = functools.partial(KademliaOverlay.from_ids, bits=bits, seed=SEED)
        naive = functools.partial(oracle.kademlia_lookup, seed=SEED)
    else:
        make = functools.partial(
            PastryOverlay.from_ids, bits=bits, digit_bits=digit_bits, seed=SEED
        )
        naive = functools.partial(
            oracle.pastry_lookup, digit_bits=digit_bits, seed=SEED
        )
    ring, ref = make(sorted(ids)), make(sorted(ids))
    ring.trace = ref.trace = True
    if plan is not None:
        ring, ref = FaultInjector(ring, plan, seed=5), FaultInjector(ref, plan, seed=5)
    return ring, ref, naive


@pytest.mark.parametrize("kind", KINDS)
class TestRoutingEquivalence:
    def test_static_ring_equivalent(self, kind):
        ring, ref, naive = _pair(kind, range(0, 2**16, 397))
        rng = rng_for(2, "static", kind)
        for _ in range(300):
            key = rng.randrange(2**16)
            origin = ring.random_live_node(rng)
            _route_once(ring, ref, key, origin, naive)

    def test_equivalent_through_churn(self, kind):
        """Joins, bulk joins and leaves between lookups: the contact memo
        must not outlive the membership it was drawn from."""
        ring, ref, naive = _pair(kind, range(0, 2**16, 811))
        rng = rng_for(3, "churn", kind)
        joins = leaves = bulk = 0
        for _ in range(120):
            roll = rng.random()
            if roll < 0.2:
                candidate = rng.randrange(2**16)
                if not ring.has_node(candidate):
                    _both(ring, ref, "add_node", candidate)
                    joins += 1
            elif roll < 0.4 and ring.size > 4:
                victim = rng.choice(list(ring.node_ids()))
                _both(ring, ref, "remove_node", victim, graceful=rng.random() < 0.5)
                leaves += 1
            elif roll < 0.5:
                batch = {rng.randrange(2**16) for _ in range(8)}
                _both(ring, ref, "add_nodes_bulk", sorted(batch - set(ring.node_ids())))
                bulk += 1
            for _ in range(3):  # warm the memo the next step must drop
                key = rng.randrange(2**16)
                origin = ring.random_live_node(rng)
                _route_once(ring, ref, key, origin, naive)
        assert joins > 10 and leaves > 10 and bulk > 5

    def test_lookup_does_not_depend_on_earlier_lookups(self, kind):
        """A route is a function of membership, origin and key — not of
        what the memo already holds.  (Pastry once keyed a routing-table
        cell without its row: for a node whose id starts with digit 0,
        row 0 digit ``d`` and row 1 digits ``0 d`` shared one entry.)"""
        build = KademliaOverlay.build if kind == "kademlia" else PastryOverlay.build
        warm, cold = build(1024, bits=64, seed=0), build(1024, bits=64, seed=0)
        rng = rng_for(4, "order", kind)
        origins = [n for n in warm.node_ids() if n >> 60 == 0][:12]
        assert len(origins) == 12
        for origin in origins:
            low = rng.randrange(2**56)
            for d in range(1, 16):
                first, second = (d << 60) | low, (d << 56) | low
                warm.lookup(first, origin=origin)
                got = warm.lookup(second, origin=origin)
                cold._contact_cache.clear()
                want = cold.lookup(second, origin=origin)
                assert (got.node_id, got.cost.hops) == (want.node_id, want.cost.hops)


@pytest.mark.parametrize("kind", KINDS)
class TestEdgeGeometry:
    def test_every_ring_of_a_3_bit_space(self, kind):
        """All 255 memberships x every origin x 8 keys, exhaustively."""
        for n in range(1, 9):
            for ids in itertools.combinations(range(8), n):
                ring, ref, naive = _pair(kind, ids, bits=3, digit_bits=1)
                for origin in ids:
                    for key in range(8):
                        _route_once(ring, ref, key, origin, naive)

    def test_origin_defaults_to_the_lowest_id(self, kind):
        ring, ref, naive = _pair(kind, [7, 90, 200], bits=8)
        got, want = ring.lookup(150), naive(ref, 150, 7)
        assert got.node_id == want.node_id
        assert got.cost.nodes_visited == want.nodes_visited

    @pytest.mark.parametrize("origin", [256, 356, -1])
    def test_origin_outside_the_space_is_rejected(self, kind, origin):
        ring, _, _ = _pair(kind, [10, 100, 200], bits=8)
        with pytest.raises(ValueError, match="outside the 8-bit id space"):
            ring.lookup(50, origin=origin)
        assert ring.load.counts() == {}

    @pytest.mark.parametrize("bits", WIDTHS)
    @pytest.mark.parametrize("n_nodes", [1, 2, 3, 7, 20])
    def test_edge_keys_every_width(self, kind, bits, n_nodes):
        """Ids 0 and 2^L - 1 present; keys on and around every member."""
        size = 1 << bits
        rng = rng_for(bits, "edges", n_nodes, kind)
        for trial in range(4):
            corners = [0, size - 1][: min(n_nodes, trial)]
            ids = _draw_ids(rng, size, n_nodes, include=corners)
            ring, ref, naive = _pair(kind, ids, bits=bits)
            for origin in rng.sample(ids, min(len(ids), 5)):
                for key in _edge_keys(ring, origin):
                    _route_once(ring, ref, key, origin, naive)

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_random_rings_every_width(self, kind, bits):
        size = 1 << bits
        rng = rng_for(bits, "random-rings", kind)
        for _ in range(6):
            ids = _draw_ids(rng, size, rng.randint(1, 120))
            ring, ref, naive = _pair(kind, ids, bits=bits)
            for _ in range(40):
                key = rng.randrange(size)
                origin = ring.random_live_node(rng)
                _route_once(ring, ref, key, origin, naive)


@pytest.mark.parametrize("kind", KINDS)
class TestFaults:
    """Behind a ``FaultInjector``: a transient victim vetoes its eviction
    (an owner hands the route to its responsive heir, a contact is
    bypassed by one direct hop), a lazy crash is evicted on contact."""

    def test_transient_and_lazy_victims(self, kind):
        branches = []
        for bits in (8, 16, 64):
            size = 1 << bits
            rng = rng_for(bits, "faults", kind)
            for _ in range(30):
                ids = _draw_ids(rng, size, rng.randint(4, 40))
                victims = rng.sample(ids, max(2, len(ids) // 3))
                cut = rng.randint(1, len(victims) - 1)
                plan = FaultPlan(
                    events=(
                        FaultEvent(
                            "transient", at=0, node_ids=tuple(victims[:cut]), duration=3
                        ),
                        FaultEvent("lazy_crash", at=1, node_ids=tuple(victims[cut:])),
                    )
                )
                ring, ref, naive = _pair(kind, ids, bits=bits, plan=plan)
                for tick in range(5):  # outages lift at tick 3
                    _both(ring, ref, "advance_to", tick)
                    for _ in range(12):
                        reachable = ring.responsive_node_ids()
                        if not reachable:
                            break
                        origin = rng.choice(reachable)
                        key = rng.choice(_edge_keys(ring, origin) + [rng.randrange(size)])
                        route = _route_once(ring, ref, key, origin, naive)
                        if route is not None:
                            branches += route.branches
        # The generator must actually reach the branches it is here for.
        for branch in ("owner-vetoed", "owner-evicted", "contact-vetoed", "contact-evicted"):
            assert branches.count(branch) > 10, (branch, branches.count(branch))

    def test_vetoed_contact_is_bypassed(self, kind):
        """The direct hop by name: the origin's top bucket / cell holds
        128 and the owner, and node 3's draw (seed 3) picks 128 — down
        but not evictable."""
        plan = FaultPlan(
            events=(FaultEvent("transient", at=0, node_ids=(128,), duration=9),)
        )
        ring, ref, naive = _pair(kind, [3, 128, 200], bits=8, plan=plan, digit_bits=1)
        route = _route_once(ring, ref, 200, 3, naive)
        assert route.branches == ["contact-vetoed"] and ring.has_node(128)
        assert route.nodes_visited == [3, 200]
        assert (route.hops, route.timeouts) == (2, 1)

    def test_vetoed_owner_re_pins_the_target(self, kind):
        plan = FaultPlan(
            events=(FaultEvent("partition", at=0, node_ids=(128, 160), duration=9),)
        )
        ring, ref, naive = _pair(kind, [0, 128, 160, 200], bits=8, plan=plan)
        route = _route_once(ring, ref, 130, 0, naive)
        assert route.branches == ["owner-vetoed"]
        assert route.node_id == 200 and route.timeouts == 2 and ring.size == 4

    def test_dead_owner_chain_is_evicted(self, kind):
        ring, ref, naive = _pair(kind, [10, 50, 60, 70, 200], bits=8)
        for victim in (50, 60, 70):
            _both(ring, ref, "mark_failed", victim)
        route = _route_once(ring, ref, 52, 10, naive)
        assert route.branches.count("owner-evicted") >= 1
        assert route.node_id in (10, 200) and ring.size < 5

    def test_all_dead_raises_cleanly(self, kind):
        ring, ref, naive = _pair(kind, [10, 50], bits=8)
        _both(ring, ref, "mark_failed", 10)
        _both(ring, ref, "mark_failed", 50)
        assert _route_once(ring, ref, 40, 10, naive) is None
        with pytest.raises(EmptyOverlayError):
            ring.lookup(40, origin=10)
        with pytest.raises(EmptyOverlayError):
            ring.owner_of(40)


@pytest.mark.parametrize(
    "build, label",
    [
        (ChordRing.build, "chord-ids"),
        (KademliaOverlay.build, "kademlia-ids"),
        (PastryOverlay.build, "pastry-ids"),
    ],
)
def test_ring_ids_are_the_labelled_stream(build, label):
    """``build`` takes the first ``n`` distinct values of its stream."""
    rng = rng_for(11, label)
    want = []
    while len(want) < 200:
        candidate = rng.randrange(2**8)
        if candidate not in want:
            want.append(candidate)
    assert list(build(200, bits=8, seed=11).node_ids()) == sorted(want)
