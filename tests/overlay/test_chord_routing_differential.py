"""Differential tests: ``ChordRing.lookup`` against a naive Chord oracle.

``tests/overlay/chord_oracle.py`` routes by Chord's own definitions
(full finger tables by linear scan, closest-preceding by scanning
``i = L-1 .. 0``, liveness asked on every hop).  Every case here builds
one membership twice; one copy routes with the package, the other with
the oracle, and afterwards everything observable must agree: owner,
``hops``, ``messages``, ``timeouts``, the traced path, the membership
the lookup left behind (evictions) and every ``load`` count, in the
order the counts were first charged.

The generators aim at what a closed-form hop can get wrong: every ring
of a 3-bit space exhaustively, id widths on both sides of the 64-bit
``array('Q')`` / wide-list storage split, rings of one to three nodes,
ids ``0`` and ``2^L - 1`` present, keys on and next to member ids,
``key == origin``, ``origin == owner``, joins / leaves / crashes / lazy
failures interleaved with lookups, and a ``FaultInjector`` whose
transient victims take the veto-and-relay branches while its lazy
crashes take the eviction ones.

Every lookup is routed three times on both copies: a miss, the second
sighting that stores the route in the package's route memo, and a hit
that replays it.  So every generator above also holds memo hits to the
oracle, and ``TestRouteMemo`` adds the cases a memo keyed by
``(origin, owner)`` could get wrong.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EmptyOverlayError, LookupFailedError
from repro.overlay.chord import ChordRing
from repro.overlay.faults import FaultEvent, FaultInjector, FaultPlan
from repro.sim.seeds import rng_for
from tests.overlay import chord_oracle as oracle

WIDTHS = [3, 8, 16, 64, 80]


def _pair(ids, bits=16, plan=None):
    """One membership twice: ``(routed by the package, by the oracle)``."""
    ring = ChordRing.from_ids(sorted(ids), bits=bits, trace=True)
    ref = ChordRing.from_ids(sorted(ids), bits=bits, trace=True)
    if plan is None:
        return ring, ref
    return FaultInjector(ring, plan, seed=5), FaultInjector(ref, plan, seed=5)


def _draw_ids(rng, size, count, include=()):
    """``count`` distinct ids below ``size`` (``range(2**80)`` has no len)."""
    ids = set(include)
    while len(ids) < min(count, size):
        ids.add(rng.randrange(size))
    return sorted(ids)


def _both(ring, ref, method, *args, **kwargs):
    getattr(ring, method)(*args, **kwargs)
    getattr(ref, method)(*args, **kwargs)


def _route_once(ring, ref, key, origin, naive):
    """Route on both copies; returns the oracle's route (None if it raised)."""
    try:
        expected = naive(ref, key, origin)
    except (EmptyOverlayError, LookupFailedError) as exc:
        expected = None
        with pytest.raises(type(exc)):
            ring.lookup(key, origin=origin)
    else:
        got = ring.lookup(key, origin=origin)
        assert got.node_id == expected.node_id
        assert got.cost.hops == expected.hops
        assert got.cost.messages == expected.messages
        assert got.cost.timeouts == expected.timeouts
        assert got.cost.nodes_visited == expected.nodes_visited
    assert list(ring.node_ids()) == list(ref.node_ids())
    # Items, not dicts: charges must also be first seen in the same order.
    assert list(ring.load.counts().items()) == list(ref.load.counts().items())
    return expected


def _assert_lookup_identical(ring, ref, key, origin, naive=oracle.lookup):
    """Route three times (miss, memo admission, memo hit); returns the
    oracle's first route (None if it raised)."""
    first = _route_once(ring, ref, key, origin, naive)
    for _ in range(2):
        _route_once(ring, ref, key, origin, naive)
    return first


def _edge_keys(ring, origin):
    """Keys on and next to every member id, the origin, and a key the
    origin itself owns."""
    size = ring.space.size
    keys = {origin, (ring.predecessor_id(origin) + 1) % size, 0, size - 1}
    for member in ring.node_ids():
        keys.update(((member - 1) % size, member, (member + 1) % size))
    return sorted(keys)


class TestRoutingEquivalence:
    def test_static_ring_equivalent(self):
        ring, ref = _pair(range(0, 2**16, 397))
        rng = rng_for(2, "static")
        for _ in range(300):
            key = rng.randrange(2**16)
            origin = ring.random_live_node(rng)
            _assert_lookup_identical(ring, ref, key, origin)

    def test_equivalent_through_churn(self):
        ring, ref = _pair(range(0, 2**16, 811))
        rng = rng_for(3, "churn")
        for _ in range(120):
            roll = rng.random()
            if roll < 0.2:
                candidate = rng.randrange(2**16)
                if not ring.has_node(candidate):
                    _both(ring, ref, "add_node", candidate)
            elif roll < 0.4 and ring.size > 4:
                victim = rng.choice(list(ring.node_ids()))
                _both(ring, ref, "remove_node", victim, graceful=rng.random() < 0.5)
            key = rng.randrange(2**16)
            origin = ring.random_live_node(rng)
            _assert_lookup_identical(ring, ref, key, origin)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_property_interleavings(self, data):
        """Joins, leaves, crashes, lazy failures and repair-triggering
        lookups interleaved at random: the ring never leaves the oracle."""
        ids = data.draw(
            st.sets(st.integers(0, 2**12 - 1), min_size=6, max_size=24)
        )
        ring, ref = _pair(ids, bits=12)
        steps = data.draw(st.integers(min_value=3, max_value=15))
        for _ in range(steps):
            op = data.draw(
                st.sampled_from(["join", "leave", "crash", "lazy", "lookup"])
            )
            live = [n for n in ring.node_ids() if ring.is_alive(n)]
            if op == "join":
                candidate = data.draw(st.integers(0, 2**12 - 1))
                if not ring.has_node(candidate):
                    _both(ring, ref, "add_node", candidate)
            elif op in ("leave", "crash") and ring.size > 3:
                victim = data.draw(st.sampled_from(sorted(ring.node_ids())))
                _both(ring, ref, "remove_node", victim, graceful=op == "leave")
            elif op == "lazy" and len(live) > 2:
                victim = data.draw(st.sampled_from(sorted(live)))
                _both(ring, ref, "mark_failed", victim)
                live.remove(victim)
            if not live:
                continue
            key = data.draw(st.integers(0, 2**12 - 1))
            origin = data.draw(st.sampled_from(sorted(live)))
            if ring.is_alive(origin):
                _assert_lookup_identical(ring, ref, key, origin)


class TestEdgeGeometry:
    def test_every_ring_of_a_3_bit_space(self):
        """All 255 memberships x every origin x 8 keys, exhaustively."""
        for n in range(1, 9):
            for ids in itertools.combinations(range(8), n):
                ring, ref = _pair(ids, bits=3)
                for origin in ids:
                    for key in range(8):
                        _assert_lookup_identical(ring, ref, key, origin)

    def test_origin_that_left_still_reaches_owner(self):
        """An origin outside the membership has no finger table in
        Chord's definition, so there is no oracle for its first hop —
        but the route must still end at the owner, without detours."""
        for n in range(1, 8):
            for ids in itertools.combinations(range(8), n):
                ring = ChordRing.from_ids(ids, bits=3, trace=True)
                for origin in set(range(8)) - set(ids):
                    for key in range(8):
                        result = ring.lookup(key, origin=origin)
                        assert result.node_id == ring.owner_of(key)
                        assert result.cost.hops <= 3  # one per id bit

    @pytest.mark.parametrize("bits", WIDTHS)
    @pytest.mark.parametrize("n_nodes", [1, 2, 3, 7, 20])
    def test_edge_keys_every_width(self, bits, n_nodes):
        """Ids 0 and 2^L - 1 present; keys on and around every member."""
        size = 1 << bits
        rng = rng_for(bits, "edges", n_nodes)
        for trial in range(4):
            corners = [0, size - 1][: min(n_nodes, trial)]
            ids = _draw_ids(rng, size, n_nodes, include=corners)
            ring, ref = _pair(ids, bits=bits)
            for origin in rng.sample(ids, min(len(ids), 5)):
                for key in _edge_keys(ring, origin):
                    _assert_lookup_identical(ring, ref, key, origin)

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_random_rings_every_width(self, bits):
        size = 1 << bits
        rng = rng_for(bits, "random-rings")
        for _ in range(6):
            ids = _draw_ids(rng, size, rng.randint(1, 120))
            ring, ref = _pair(ids, bits=bits)
            for _ in range(40):
                key = rng.randrange(size)
                origin = ring.random_live_node(rng)
                _assert_lookup_identical(ring, ref, key, origin)


class TestFaults:
    """Behind a ``FaultInjector``: transient victims veto their eviction
    (the route relays past them or settles on the owner's responsive
    successor), lazy crashes are evicted on contact."""

    @pytest.mark.parametrize("bits", [8, 16, 64])
    def test_transient_and_lazy_victims(self, bits):
        size = 1 << bits
        rng = rng_for(bits, "faults")
        timeouts = evicted = vetoed = 0
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
            ring, ref = _pair(ids, bits=bits, plan=plan)
            for tick in range(5):  # outages lift at tick 3
                _both(ring, ref, "advance_to", tick)
                for _ in range(12):
                    reachable = ring.responsive_node_ids()
                    if not reachable:
                        break
                    origin = rng.choice(reachable)
                    key = rng.choice(_edge_keys(ring, origin) + [rng.randrange(size)])
                    before = ring.size
                    route = _assert_lookup_identical(ring, ref, key, origin)
                    if route is not None and route.timeouts:
                        timeouts += 1
                        evicted += before - ring.size
                        vetoed += before == ring.size
        # The generator must actually reach the branches it is here for.
        assert timeouts > 20 and evicted > 10 and vetoed > 10

    def test_vetoed_next_hop_relays(self):
        """The relay branch by name: the closest preceding finger of the
        origin is down but not evictable."""
        plan = FaultPlan(
            events=(FaultEvent("transient", at=0, node_ids=(128,), duration=9),)
        )
        ring, ref = _pair([0, 128, 160, 200], bits=8, plan=plan)
        route = _assert_lookup_identical(ring, ref, 190, 0)
        assert route.nodes_visited == [0, 160, 200]
        assert route.timeouts == 1 and ring.has_node(128)

    def test_vetoed_owner_settles_on_heir(self):
        plan = FaultPlan(
            events=(FaultEvent("partition", at=0, node_ids=(128, 160), duration=9),)
        )
        ring, ref = _pair([0, 128, 160, 200], bits=8, plan=plan)
        route = _assert_lookup_identical(ring, ref, 100, 0)
        assert route.node_id == 200 and ring.size == 4


class TestDeadOwnerEviction:
    def test_dead_owner_and_dead_heir(self):
        """Regression: when the key's owner *and* its first successor
        are both (lazily) dead, one lookup walks the successor list,
        evicts both, and resolves to the next live node."""
        ring = ChordRing.from_ids([10, 50, 60, 200], bits=8)
        assert ring.owner_of(40) == 50
        ring.mark_failed(50)
        ring.mark_failed(60)
        result = ring.lookup(40, origin=10)
        assert result.node_id == 200
        assert not ring.has_node(50)  # evicted
        assert not ring.has_node(60)  # evicted via the successor walk
        assert result.cost.hops >= 2  # one timeout probe per eviction

    def test_chain_matches_oracle(self):
        ring, ref = _pair([10, 50, 60, 70, 200], bits=8)
        for victim in (50, 60, 70):
            _both(ring, ref, "mark_failed", victim)
        route = _assert_lookup_identical(ring, ref, 40, 10)
        assert route.timeouts == 3 and list(ring.node_ids()) == [10, 200]

    def test_all_dead_raises_cleanly(self):
        ring, ref = _pair([10, 50], bits=8)
        _both(ring, ref, "mark_failed", 10)
        _both(ring, ref, "mark_failed", 50)
        assert _assert_lookup_identical(ring, ref, 40, 10) is None
        with pytest.raises(EmptyOverlayError):
            ring.lookup(40, origin=10)


def _assert_fingers_match_oracle(ring):
    ids = oracle.members(ring)
    for node_id in ids:
        table = oracle.finger_table(ids, node_id, ring.space.bits)
        assert [ring.finger(node_id, i) for i in range(ring.space.bits)] == table


class TestFingerDefinition:
    """``finger(n, i)`` is ``successor(n + 2^i)`` on the membership as it
    is now — there is no table that a join or leave could leave stale."""

    def test_finger_matches_definition(self):
        ring = ChordRing.from_ids([0, 64, 128, 192], bits=8)
        assert ring.finger(0, 5) == 64  # successor(0 + 32) = 64
        _assert_fingers_match_oracle(ring)

    def test_join_moves_covering_finger(self):
        ring = ChordRing.from_ids([0, 64, 128, 192], bits=8)
        assert ring.finger(0, 5) == 64
        ring.add_node(40)  # slots inside [32, 64): successor(32) changes
        assert ring.finger(0, 5) == 40
        _assert_fingers_match_oracle(ring)

    def test_far_join_keeps_finger(self):
        ring = ChordRing.from_ids([0, 64, 128, 192], bits=8)
        assert ring.finger(0, 5) == 64
        ring.add_node(100)  # in (64, 128): cannot affect successor(32)
        assert ring.finger(0, 5) == 64
        _assert_fingers_match_oracle(ring)

    def test_leave_moves_finger_to_heir(self):
        ring = ChordRing.from_ids([0, 64, 128, 192], bits=8)
        assert ring.finger(0, 5) == 64
        ring.remove_node(64)
        assert ring.finger(0, 5) == 128
        _assert_fingers_match_oracle(ring)

    def test_owner_tracks_membership(self):
        ring = ChordRing.from_ids([10, 50, 200], bits=8)
        assert ring.owner_of(30) == 50
        ring.add_node(40)
        assert ring.owner_of(30) == 40
        ring.remove_node(40)
        assert ring.owner_of(30) == 50
        ring.remove_node(50)
        assert ring.owner_of(30) == 200

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_fingers_every_width(self, bits):
        size = 1 << bits
        rng = rng_for(bits, "fingers")
        ids = _draw_ids(rng, size, 8, include=(0, size - 1))
        _assert_fingers_match_oracle(ChordRing.from_ids(ids, bits=bits))


class TestRouteMemo:
    """The route memo keys on ``(origin, owner)``: exact for a member
    origin, and cleared by anything that can change a route."""

    def test_non_member_origin_is_never_replayed(self):
        """From a non-member origin the first hop depends on the key:
        on ``{0, 100}`` origin 50 reaches owner 100 in one hop for key
        60 but in two, via 0, for key 40."""
        ring, ref = _pair([0, 100], bits=8)
        assert _assert_lookup_identical(ring, ref, 60, 50).nodes_visited == [50, 100]
        assert _assert_lookup_identical(ring, ref, 40, 50).nodes_visited == [50, 0, 100]
        assert all(path is None for path in ring._route_cache.values())

    def test_mark_failed_on_a_memoised_path(self):
        """A lazy crash on a replayed route: the next lookup times out
        on it and evicts it, exactly as the oracle does."""
        ring, ref = _pair(range(0, 2**16, 397))
        origin, key = 0, 2**15 + 5
        route = _assert_lookup_identical(ring, ref, key, origin)
        assert len(route.nodes_visited) > 3
        assert ring._route_cache[origin, route.node_id] == tuple(route.nodes_visited)
        victim = route.nodes_visited[1]
        _both(ring, ref, "mark_failed", victim)
        after = _assert_lookup_identical(ring, ref, key, origin)
        assert after.timeouts == 1 and not ring.has_node(victim)

    def test_outage_on_a_walked_route_under_a_fault_layer(self):
        """Behind a fault layer a node can stop answering with no
        membership change or lazy crash, so a route walked before the
        outage must not be replayed after it."""
        plan = FaultPlan(
            events=(FaultEvent("transient", at=1, node_ids=(128,), duration=9),)
        )
        ring, ref = _pair([0, 128, 160, 200], bits=8, plan=plan)
        assert _assert_lookup_identical(ring, ref, 190, 0).nodes_visited == [0, 128, 160, 200]
        _both(ring, ref, "advance_to", 1)
        route = _assert_lookup_identical(ring, ref, 190, 0)
        assert route.nodes_visited == [0, 160, 200] and route.timeouts == 1

    def test_lookup_on_a_ring_failures_emptied_charges_nothing(self):
        """The first lookup times out on every member and evicts it; a
        repeat on the now-empty ring raises before charging its origin,
        in the oracle as in the package."""
        ring, ref = _pair([0, 100], bits=8)
        for node_id in (0, 100):
            _both(ring, ref, "mark_failed", node_id)
        assert _route_once(ring, ref, 40, 0, oracle.lookup) is None
        assert list(ring.node_ids()) == []
        charged = ring.load.counts()
        assert _route_once(ring, ref, 40, 0, oracle.lookup) is None
        assert ring.load.counts() == charged

    @pytest.mark.parametrize("origin", [256, 356, -1, -256])
    def test_origin_outside_the_space_is_rejected(self, origin):
        """356 would alias the owner 100 (0 hops); nothing is charged."""
        ring = ChordRing.from_ids([10, 100, 200], bits=8)
        with pytest.raises(ValueError, match="outside the 8-bit id space"):
            ring.lookup(50, origin=origin)
        assert ring.load.counts() == {} and ring._route_cache == {}
