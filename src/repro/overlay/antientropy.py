"""Proactive anti-entropy reconciliation over replica chains.

Read-repair is query-driven: it only fixes replicas a counting walk
happens to traverse, so after amnesia, a partition, or a crash-rejoin,
untouched replicas stay divergent indefinitely.  This module is the
background half of the paper's soft-state story (section 3.3) and the
only background healer: every maintenance round, each node
exchanges *digests* with its replica-chain peers and OR-merges
whatever turns out to differ — independent of query traffic.

The exchange is charged as a two-level digest protocol: one leaf per
``(metric, bit)`` slot, leaves grouped into *segments* (one per stored
DHS interval, via an injected ``segment_of`` mapping) under a single
node root.  A converged pair exchanges two roots and stops — the
steady-state bandwidth floor is ``2 * SizeModel.digest_bytes`` per
pair.  An unconverged direction also exchanges the digests of its
offered segments, and only the mismatched segments degrade to shipping
their state as tuples.  The simulator builds no digest: whether two
digests would match is decided from the packed live views they
summarise, which is what a collision-free digest compares.

Reconciliation between a node ``X`` and a chain peer ``S`` is two
asymmetric directions, chosen so repeated rounds converge without
flooding copies around the ring:

* **push** — ``X`` offers the bits it is *primary* for (live bits none
  of its ``R`` live predecessors hold: ``ChainView.primary``, the one
  rule the divergence gauge uses too), and ``S``
  OR-merges what it misses.  This keeps every replica chain at its
  configured depth.
* **homecoming** — ``S`` returns the bits for which ``X`` is *visible*
  to the counting walk (in the overlay's ``interval_reach``, per the
  injected per-node position mask) while ``S`` itself is not.  This is how an
  amnesiac rejoiner pulls its spilled state back home, and how bits
  stranded behind a partition reach a reachable holder the walk reads.
  This is the only code that returns a bit the walk cannot read to a
  node it can.

A round runs on one :class:`~repro.overlay.replication.ChainView`, which
the caller builds: chain peers come off one sorted id list, and each
store is scanned once into one packed int (a fixed slice per
``(metric, bit)`` key) the round refreshes where it writes.  Both checks
of a pair are then a few big-int operations: the push is converged iff
``primary & ~dst == 0``, the homecoming iff
``src & expand(vis(dst) & ~vis(src)) & ~dst == 0``.
**Only a direction that fails its check spells its views out**: a
converged direction is charged its two roots and builds no dict or
summary.  A segment mismatches iff it holds an offered bit the
receiver lacks.  Reads, writes and charges are exactly the
pair-by-pair protocol's (``test_antientropy_differential.py``).

Layering note: this module sits in the overlay and must not import the
core DHS machinery, so slots are duck-typed (:class:`RegisterSlot`) and
the interval geometry (``segment_of``, ``visible``) plus the store
writer arrive as callables injected by
:func:`repro.core.maintenance.antientropy_sweep`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Hashable, List, Optional, cast

from repro.obs import runtime as obs
from repro.overlay.messages import DEFAULT_SIZE_MODEL, SizeModel
from repro.overlay.node import Node
from repro.overlay.replication import ChainView, RegisterSlot, entry_expiry
from repro.overlay.stats import OpCost

__all__ = [
    "AntiEntropyStats",
    "RegisterSlot",
    "antientropy_round",
]

#: Injected store writer: ``write_fn(node, metric, vector, bit, expiry)``.
WriteFn = Callable[[Node, Hashable, int, int, Optional[int]], None]
#: Injected walk visibility: ``visible(node_id)`` is the bitmask of the
#: bit positions whose counting walk reads ``node_id``.
VisibleFn = Callable[[int], int]
#: Injected interval geometry: ``segment_of(bit) -> segment index``.
SegmentFn = Callable[[int], int]


@dataclass
class AntiEntropyStats:
    """What one reconciliation round (or pair) did, and what it cost."""

    cost: OpCost = field(default_factory=OpCost)
    pairs: int = 0
    pairs_converged: int = 0
    segments_checked: int = 0
    segments_mismatched: int = 0
    entries_sent: int = 0
    entries_written: int = 0

    def merge(self, other: "AntiEntropyStats") -> None:
        """Fold another stats block into this one."""
        self.cost.add(other.cost)
        self.pairs += other.pairs
        self.pairs_converged += other.pairs_converged
        self.segments_checked += other.segments_checked
        self.segments_mismatched += other.segments_mismatched
        self.entries_sent += other.entries_sent
        self.entries_written += other.entries_written


def _bits(mask: int) -> List[int]:
    """Set-bit positions, ascending (local copy — no core import here)."""
    out: List[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _charge_roots(stats: AntiEntropyStats, model: SizeModel, directions: int) -> None:
    """The bandwidth floor: each direction exchanges two root digests."""
    cost = stats.cost
    cost.messages += 2 * directions
    cost.hops += 2 * directions
    cost.bytes += 2 * directions * model.digest_bytes


def _sync_direction(
    view: ChainView,
    src_id: int,
    dst_id: int,
    offered: int,
    *,
    model: SizeModel,
    segment_of: SegmentFn,
    write_fn: WriteFn,
    stats: AntiEntropyStats,
) -> None:
    """Repair a direction whose offer ``dst_id`` does not hold.

    After the root exchange (charged by the caller), both sides ship
    per-segment digest lists over the segments of the offered keys; a
    segment mismatches iff it holds a key with an offered bit ``dst``
    lacks, and only those segments degrade to tuple summaries, in
    ``src_id``'s store order, which ``dst`` OR-merges.
    """
    cost = stats.cost
    offered_view = view.unpack(src_id, offered)
    missing_view = view.unpack(src_id, offered & ~view.packed(dst_id))
    segments = {segment_of(key[1]) for key in offered_view}
    mismatched = {segment_of(key[1]) for key in missing_view}
    stats.segments_checked += len(segments)
    stats.segments_mismatched += len(mismatched)
    cost.messages += 2
    cost.hops += 2
    cost.bytes += 2 * len(segments) * model.digest_bytes
    dht = view.dht
    src_store = dht.node(src_id).store
    dst = dht.node(dst_id)
    shipped_slots = 0
    shipped_entries = 0
    for key, mask in offered_view.items():
        if segment_of(key[1]) not in mismatched:
            continue
        shipped_slots += 1
        shipped_entries += mask.bit_count()
        missing = missing_view.get(key)
        if not missing:
            continue
        metric, bit = key
        slot = cast(RegisterSlot, src_store[key])
        for vector in _bits(missing):
            write_fn(dst, metric, vector, bit, entry_expiry(slot, vector))
            stats.entries_written += 1
            cost.repair_writes += 1
        view.refresh(dst_id, key)
    stats.entries_sent += shipped_entries
    cost.messages += 1
    cost.hops += 1
    cost.bytes += model.summary_bytes(shipped_slots, shipped_entries)
    dht.load.record(dst_id)


def antientropy_round(
    view: ChainView,
    replication: int,
    *,
    model: Optional[SizeModel] = None,
    visible: VisibleFn,
    segment_of: SegmentFn,
    write_fn: WriteFn,
    rng: Optional[random.Random] = None,
    sample: Optional[int] = None,
) -> AntiEntropyStats:
    """One reconciliation round over every responsive node's replica chain.

    The round runs on ``view``, a fresh :class:`ChainView` of the
    deployment at the round's tick, and leaves it equal to a fresh
    scan of the stores it wrote: the caller may read the round's end
    state from it.  Each responsive node reconciles with its
    ``max(1, replication)`` responsive chain successors.  ``sample``
    (with a seeded ``rng``) limits the round to a deterministic subset
    of initiators — the scheduler's knob for spreading repair load over
    several ticks.  A ``sample`` below 1 or without an ``rng`` raises
    ``ValueError`` rather than quietly running the full round.
    """
    size_model = model if model is not None else DEFAULT_SIZE_MODEL
    stats = AntiEntropyStats()
    now = view.now
    ids = view.ids
    if sample is not None:
        if sample < 1:
            raise ValueError(f"antientropy sample must be >= 1, got {sample}")
        if rng is None:
            raise ValueError("antientropy sample needs a seeded rng")
        if sample < len(ids):
            ids = sorted(rng.sample(ids, sample))
    degree = max(1, replication)
    packed = view.packed

    def _sync(src_id: int, dst_id: int, offered: int) -> bool:
        """Repair one direction; ``True`` iff ``dst_id`` already held the offer."""
        if not offered & ~packed(dst_id):
            return True
        _sync_direction(
            view, src_id, dst_id, offered,
            model=size_model, segment_of=segment_of, write_fn=write_fn, stats=stats,
        )
        return False

    def _pair(left_id: int, right_id: int) -> None:
        """Primary push left -> right, then homecoming pull right -> left.

        A direction whose offer the receiver already holds is converged;
        only the others take the repair path (:func:`_sync_direction`).
        """
        converged = _sync(left_id, right_id, view.primary(left_id, degree))
        # The live bits at right whose interval's walk reads left but
        # not right: the ones to bring home.  Most neighbours are seen
        # by the same walks, so there are no such positions at all.
        positions = visible(left_id) & ~visible(right_id)
        if positions:
            home = packed(right_id) & view.expand(positions)
            converged = _sync(right_id, left_id, home) and converged
        stats.pairs_converged += converged

    def _run() -> None:
        for left_id in ids:
            successors = view.successors(left_id, degree)
            # Every int a pair reads is packed before the first is read.
            view.pack(successors)
            stats.pairs += len(successors)
            for right_id in successors:
                if obs.TRACING:
                    with obs.TRACER.span(
                        "dhs.antientropy.reconcile",
                        tick=now, left=left_id, right=right_id,
                    ):
                        _pair(left_id, right_id)
                else:
                    _pair(left_id, right_id)

    if obs.TRACING:
        with obs.TRACER.span(
            "dhs.antientropy.round", tick=now, initiators=len(ids)
        ):
            _run()
    else:
        _run()
    _charge_roots(stats, size_model, 2 * stats.pairs)
    if obs.METERING:
        obs.METRICS.inc("dhs.antientropy.pairs", stats.pairs)
        obs.METRICS.inc("dhs.antientropy.repair_writes", stats.entries_written)
        obs.METRICS.inc("dhs.antientropy.bytes", stats.cost.bytes)
        obs.METRICS.observe(
            "dhs.antientropy.segments_mismatched", stats.segments_mismatched
        )
    return stats
