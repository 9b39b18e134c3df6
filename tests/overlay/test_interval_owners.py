"""``DHTProtocol.interval_owners``: who can hold an interval's keys.

Algorithm 1 asks the overlay one question per interval — which nodes can
hold keys of ``[lo, hi)``, nearest first — and walks the answer under
its probe budget.  Three checks pin that answer:

* the **contract**: on every ring of a 4-bit id space, for every DHS
  interval and every node a lookup of one of its keys can land on, the
  walk from that node contains ``owner_of(k)`` for every key ``k`` of the
  interval (owners by linear scan).  Chord meets it; Kademlia and Pastry
  split the keys of a node-free interval over owners the walk never
  reaches, so theirs is a strict ``xfail`` until their geometry answers;
* the **walk order**, against ``routing_oracle.cursor_walk`` (the
  successor/predecessor cursors the counting loop used to carry) on
  every ring × interval × start of a 3-bit space, including an eviction
  between two steps — the walk must stay lazy;
* the **fault layer**: ``FaultInjector`` asks the wrapped overlay, so a
  geometry's own answer and its one reach memo hold under faults.
"""

import itertools

import pytest

from repro.core.config import DHSConfig
from repro.core.count import CountResult
from repro.core.dhs import DistributedHashSketch
from repro.overlay.chord import ChordRing
from repro.overlay.faults import FaultInjector, FaultPlan
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.pastry import PastryOverlay
from repro.overlay.stats import OpCost
from tests.overlay import routing_oracle as oracle
from tests.overlay.chord_oracle import successor


def rings(bits):
    """Every non-empty membership of a ``bits``-bit id space."""
    size = 2**bits
    for count in range(1, size + 1):
        yield from itertools.combinations(range(size), count)


def dhs_intervals(bits):
    """Every ``[lo, hi)`` a ``BitIntervalMap`` can draw on ``bits`` bits:
    the halving intervals ``[2^(L-r-1), 2^(L-r))`` and each last
    interval ``[0, 2^k)`` that absorbs the remainder."""
    halving = [(2 ** (bits - r - 1), 2 ** (bits - r)) for r in range(bits - 1)]
    return halving + [(0, 2**k) for k in range(1, bits + 1)]


#: More steps than any walk of a 4-bit ring can take: a walk that
#: revisits nodes fails its check instead of hanging it.
CAP = 2 * 16 + 2


def _walk(walk):
    return list(itertools.islice(walk, CAP))


OWNERS = {
    "chord": (ChordRing.from_ids, successor),
    "kademlia": (
        KademliaOverlay.from_ids,
        lambda ids, k, size: oracle.kademlia_owner(ids, k),
    ),
    "pastry": (PastryOverlay.from_ids, oracle.pastry_owner),
}
NOT_YET = pytest.mark.xfail(strict=True, reason="ROADMAP 1(a)")


@pytest.mark.parametrize(
    "overlay",
    [
        "chord",
        pytest.param("kademlia", marks=NOT_YET),
        pytest.param("pastry", marks=NOT_YET),
    ],
)
def test_every_key_owner_is_on_the_walk(overlay):
    make, owner = OWNERS[overlay]
    bits, size = 4, 16
    for ids in rings(bits):
        dht = make(ids, bits=bits)
        owners = [owner(list(ids), k, size) for k in range(size)]
        for lo, hi in dhs_intervals(bits):
            keys_owners = set(owners[lo:hi])
            for start in keys_owners:
                missed = keys_owners - set(_walk(dht.interval_owners(lo, hi, start)))
                assert not missed, (ids, (lo, hi), start, missed)


# ----------------------------------------------------------------------
# Walk order against the cursor oracle.
# ----------------------------------------------------------------------
MAKERS = {
    "chord": ChordRing.from_ids,
    "kademlia": KademliaOverlay.from_ids,
    "pastry": lambda ids, bits: PastryOverlay.from_ids(ids, bits=bits, digit_bits=1),
}
@pytest.mark.parametrize("overlay", sorted(MAKERS))
def test_walk_order_is_the_cursor_walk(overlay):
    make = MAKERS[overlay]
    for ids in rings(3):
        dht = make(ids, bits=3)
        for lo, hi in dhs_intervals(3):
            for start in ids:
                assert _walk(dht.interval_owners(lo, hi, start)) == _walk(
                    oracle.cursor_walk(dht, lo, hi, start)
                ), (ids, (lo, hi), start)


@pytest.mark.parametrize("overlay", sorted(MAKERS))
def test_an_eviction_mid_walk_is_walked_past(overlay):
    """``dht.repair(x)`` between the first and second step: the rest of
    the walk is read off the membership without ``x``."""
    make = MAKERS[overlay]
    for ids in rings(3):
        for lo, hi in dhs_intervals(3):
            for start, evicted in itertools.permutations(ids, 2):
                fast, slow = make(ids, bits=3), make(ids, bits=3)
                walks = [
                    fast.interval_owners(lo, hi, start),
                    oracle.cursor_walk(slow, lo, hi, start),
                ]
                assert [next(walk) for walk in walks] == [start, start]
                fast.repair(evicted)
                slow.repair(evicted)
                got, want = (_walk(walk) for walk in walks)
                assert got == want, (ids, (lo, hi), start, evicted)
                assert evicted not in got


def test_a_member_at_the_top_key_keeps_the_overflow_step():
    """0xFFFF owns the top key of [2^15, 2^16), yet the walk still steps
    once past it (wrapping to 7): 7 is in the interval's reach."""
    ring = ChordRing.from_ids([7, 40000, 0xFFFF], bits=16)
    assert list(ring.interval_owners(2**15, 2**16, 40000)) == [40000, 0xFFFF, 7]
    assert ring.interval_reach(2**15, 2**16) == {0xFFFF, 7, 40000}


# ----------------------------------------------------------------------
# The fault layer asks the wrapped overlay.
# ----------------------------------------------------------------------
IDS = [100, 20000, 33000, 40000, 50000, 60000]
TOP = (2**15, 2**16)  # position 0's interval with key_bits=8, m=1


class ScriptedRing(ChordRing):
    """Chord whose interval walk is a fixed script after the start."""

    SCRIPT = (60000, 100, 20000)

    def interval_owners(self, lo, hi, start):
        yield start
        yield from (n for n in self.SCRIPT if n != start)


def test_fault_layer_walks_the_wrapped_geometry():
    ring = ScriptedRing.from_ids(IDS, bits=16, trace=True)
    injector = FaultInjector(ring, FaultPlan.empty())
    config = DHSConfig(key_bits=8, num_bitmaps=1, lim=10)
    counter = DistributedHashSketch(injector, config, seed=1)._counter
    result = CountResult(
        estimates={}, sketches={}, cost=OpCost(), confidence={"m": 1.0}
    )
    counter._probe_interval(
        0, 0, [0b1], counter._begin_scan(["m"], 33000, 0, result, None), key=32900
    )
    assert result.probed_nodes == [33000, 60000, 100, 20000]
    # The owner of the top key is 100 (the ring wraps): its walk is
    # the script too.
    assert injector.interval_reach(*TOP) == {100, 60000, 20000}


def test_fault_layer_reach_follows_a_join():
    ring = ChordRing.from_ids(IDS, bits=16)
    injector = FaultInjector(ring, FaultPlan.empty())
    assert injector.interval_reach(*TOP) == {33000, 40000, 50000, 60000, 100}
    injector.add_node(45000)
    assert 45000 in injector.interval_reach(*TOP)
    injector.remove_node(33000)
    assert 33000 not in injector.interval_reach(*TOP)
    assert injector.interval_reach(*TOP) == ring.interval_reach(*TOP)
