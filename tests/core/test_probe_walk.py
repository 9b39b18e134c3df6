"""Surgical tests of Algorithm 1's per-interval probe walk.

Built on a hand-placed ring so the expected probe order is computable by
eye: lookup target first, successors up to (and one past) the interval's
top edge, then predecessors from the start point, bounded by ``lim`` and
by the interval being exhausted.
"""

import pytest

from repro.core.config import DHSConfig
from repro.core.count import Counter
from repro.core.dhs import DistributedHashSketch
from repro.core.mapping import BitIntervalMap
from repro.overlay.chord import ChordRing

# 16-bit space. Interval of position 0 (with key_bits=8, m=1) is
# [2^15, 2^16) = [32768, 65536).
IN_INTERVAL = [33000, 40000, 50000, 60000]
BELOW = [100, 20000]
ABOVE_WRAP = []  # the ring wraps: the "overflow owner" is min(all ids)


def make_counter(lim=5, seed=1):
    # trace=True so the probe walk records its full node sequence
    # (CountResult.probed_nodes stays empty otherwise).
    ring = ChordRing.from_ids(sorted(IN_INTERVAL + BELOW), bits=16, trace=True)
    config = DHSConfig(key_bits=8, num_bitmaps=1, lim=lim)
    dhs = DistributedHashSketch(ring, config, seed=seed)
    return ring, dhs


def probed_sequence(dhs, ring, lim, position=0):
    """Run one interval probe and return the probed node sequence."""
    counter: Counter = dhs._counter
    from repro.core.count import CountResult
    from repro.overlay.stats import OpCost

    result = CountResult(estimates={}, sketches={}, cost=OpCost())
    scan = counter._begin_scan(["m"], ring.node_ids()[0], 0, result, None)
    needed = [0b1]  # pending bitmap: vector 0 unresolved
    index = counter.mapping.interval_index(position)
    counter._probe_interval(
        index,
        position,
        needed,
        scan,
        key=counter.mapping.random_key_in_interval(index, counter._rng),
    )
    return result.probed_nodes


class TestWalkOrder:
    def test_walk_covers_interval_nodes_in_neighbour_order(self):
        ring, dhs = make_counter(lim=10)
        probed = probed_sequence(dhs, ring, lim=10)
        # Nothing is stored, so the walk runs to exhaustion: it must have
        # probed every in-interval node exactly once plus the wrap-around
        # overflow owner (the smallest id).
        assert sorted(set(probed)) == sorted(IN_INTERVAL + [min(BELOW)])
        assert len(probed) == len(set(probed))

    def test_successor_steps_are_adjacent(self):
        ring, dhs = make_counter(lim=10)
        probed = probed_sequence(dhs, ring, lim=10)
        # From the first target, consecutive successor probes must be
        # ring-adjacent until the direction flips (one flip max).
        flips = 0
        for a, b in zip(probed, probed[1:]):
            if ring.successor_id(a) != b:
                flips += 1
        assert flips <= 2  # succ-run -> overflow hop -> pred-run

    def test_budget_caps_probes(self):
        ring, dhs = make_counter(lim=2)
        probed = probed_sequence(dhs, ring, lim=2)
        assert len(probed) == 2

    def test_early_exit_on_found_bit(self):
        ring, dhs = make_counter(lim=10)
        # Plant the bit on EVERY candidate node: the first probe hits.
        from repro.core.tuples import write_entry

        for node_id in IN_INTERVAL + BELOW:
            write_entry(ring.node(node_id), "m", 0, 0, None)
        probed = probed_sequence(dhs, ring, lim=10)
        assert len(probed) == 1


def run_probe(dhs, origin, key):
    """Probe position 0's interval from ``origin`` with a pinned key."""
    from repro.core.count import CountResult
    from repro.overlay.stats import OpCost

    counter: Counter = dhs._counter
    result = CountResult(estimates={}, sketches={}, cost=OpCost(), confidence={"m": 1.0})
    counter._probe_interval(
        counter.mapping.interval_index(0),
        0,
        [0b1],
        counter._begin_scan(["m"], origin, 0, result, None),
        key=key,
    )
    return result


class TestTimeoutAccounting:
    """A lazily-failed node met mid-walk: one timeout hop, then route on.

    The origin is the interval's first owner, so the lookup is zero hops
    and never touches the corpse — it must be *discovered by the probe
    walk*, charged exactly one timeout, and walked past.
    """

    # key 32900 is owned by 33000 (the interval's first node).
    KEY = 32900

    def _walk(self, replication):
        ring = ChordRing.from_ids(sorted(IN_INTERVAL + BELOW), bits=16, trace=True)
        config = DHSConfig(key_bits=8, num_bitmaps=1, lim=10, replication=replication)
        dhs = DistributedHashSketch(ring, config, seed=1)
        ring.mark_failed(40000)
        result = run_probe(dhs, origin=33000, key=self.KEY)
        return ring, result

    @pytest.mark.parametrize("replication", [0, 2])
    def test_one_timeout_hop_then_route_on(self, replication):
        ring, result = self._walk(replication)
        # The dead node was contacted once (one timeout), and the walk
        # went on to cover the rest of the interval plus the overflow
        # owner — the corpse does not end the scan.
        assert result.cost.timeouts == 1
        assert result.probed_nodes == [33000, 40000, 50000, 60000, min(BELOW)]
        # The first target rides on the lookup; every later probe is one
        # hop.  The dead contact's hop was already paid by the walk, so
        # the PR3 cost identity survives faults unchanged.
        assert result.cost.hops == result.probes - 1
        assert result.cost.messages == result.cost.hops

    @pytest.mark.parametrize("replication", [0, 2])
    def test_corpse_evicted_on_contact(self, replication):
        ring, result = self._walk(replication)
        # Lazy failures are discovered (and evicted) on contact (§3.5).
        assert not ring.has_node(40000)

    def test_transient_node_times_out_but_survives(self):
        from repro.overlay.faults import FaultEvent, FaultInjector, FaultPlan

        ring = ChordRing.from_ids(sorted(IN_INTERVAL + BELOW), bits=16, trace=True)
        plan = FaultPlan(
            events=(FaultEvent("transient", at=1, node_ids=(40000,), duration=5),)
        )
        injector = FaultInjector(ring, plan, seed=0)
        config = DHSConfig(key_bits=8, num_bitmaps=1, lim=10)
        dhs = DistributedHashSketch(injector, config, seed=1)
        injector.advance_to(1)
        result = run_probe(dhs, origin=33000, key=self.KEY)
        # Same timeout charge as a crash, but the fault layer vetoes the
        # eviction: the node keeps its membership (and its store).
        assert result.cost.timeouts == 1
        assert result.cost.hops == result.probes - 1
        assert ring.has_node(40000)


class TestOverflowOwner:
    def test_wrapped_overflow_owner_holds_interval_tuples(self):
        """Keys above the last in-interval node wrap to the ring's first
        node; the walk must check it."""
        ring, dhs = make_counter(lim=10)
        # A key just below 2^16 is owned by... successor wraps to min id.
        assert ring.owner_of(65000) == min(BELOW)
        probed = probed_sequence(dhs, ring, lim=10)
        assert min(BELOW) in probed

    def test_no_second_overflow_node(self):
        ring, dhs = make_counter(lim=10)
        probed = probed_sequence(dhs, ring, lim=10)
        # 20000 is outside the interval and NOT the overflow owner:
        # it must never be probed.
        assert 20000 not in probed
