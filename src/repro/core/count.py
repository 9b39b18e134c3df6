"""DHS counting — the paper's Algorithm 1, for both of its estimators.

Counting walks the id-space intervals and, per interval, probes up to
``lim`` nodes asking "which vectors have bit ``r`` set for these
metrics?": one DHT lookup of an interval key, then one hop per node of
the overlay's :meth:`~repro.overlay.dht.DHTProtocol.interval_owners`.

* super-LogLog scans **high → low** and records, per bitmap, the
  *first* set bit seen — its maximum (Alg. 1).
* PCSA scans **low → high**; a bitmap stays *active* while every probed
  position was found set, and resolves to its leftmost zero at the first
  position that ``lim`` probes could not confirm.

Probing any node yields the bit's status for *all* bitmaps of *all*
requested metrics at once — a whole ``m``-bit **plane** per metric —
which is why hop counts are independent of ``m`` and of the number of
metrics (sections 4.2/4.3) while byte counts are not.

The scan keeps exactly that: per metric, one integer bit plane per
position (the bitmaps *newly resolved* there on the way down, the
bitmaps *still confirmed* there on the way up; below ``bit_shift`` the
assumed-set planes).  Estimates come from the planes' popcounts through
:mod:`repro.sketches.estimators`, whose float formulas the local
sketches' ``estimate()`` share, so the distributed estimate is
bit-identical to the centralized one.  No sketch object is built to
count: :attr:`CountResult.sketches` cuts a metric's planes out of its
block's and rebuilds a sketch only when a caller reads one.

Hot path: a count reads every requested metric with one ``&`` per
block of 64 metrics.  The counter numbers metrics in the order they are
first requested, 64 to a block, one ``m``-bit *lane* per member; a scan
keeps its pending (downward) or active (upward) vectors and the vectors
found at the current position as one packed integer per touched block.
A probed node answers from its *read rows* (``Node.read_rows``): one
packed integer per (block, position) holding every member's live
bitmap at that position in its lane.  A row is built from the slots
(``store.get`` once per member) on its first probe; every store
mutation drops the node's rows, a row holding a TTL'd entry serves only
the ``now`` it was built at, and a block that gained members since
rebuilds.  A probe is then one ``&`` against the interval's pending
lanes and one popcount per touched block, and the walk stops when
``pending & ~found`` is zero in every block.  Per-metric work is left
to read repair and to one pass after the scan.  A one-metric count
takes a ``bit_count`` per plane.  A count of more joins each block's
planes, and the lanes each exhausted interval left unresolved, into
one numpy popcount matrix, from which the batched estimators of
:mod:`repro.sketches.estimators` compute every lane's estimate and
each lane's confidence multiplies its intervals' eq. 5 factors.

The per-interval random probe keys are drawn up front, one per
interval, by :meth:`~repro.core.mapping.BitIntervalMap.random_keys`:
one pass over the counting RNG per scan, straight from the mapping's
``(lo, width, bits)`` table, consuming the RNG exactly as one
``randrange(lo, hi)`` per interval would.  Per-probe node-id recording
is gated behind ``dht.trace`` — the ``probes``/``unique_probed``
counters stay exact.  What a scan decides once — whether it is traced,
whether its contact is lossy, whether it read-repairs, and the overlay
bindings its probes call — lives on its :class:`_Scan`; an interval's
budget, bounds, pending lanes and per-hop probe bytes are set once per
interval.

There is one probe walk: every probe contacts the node, reads its rows,
charges the bytes, read-repairs when configured and emits one ``probe``
event.  Only the contact is chosen, per scan: under the retry policy
when the overlay carries a fault layer (the only source of dropped
messages and of live nodes that do not answer), directly otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import reduce
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.config import DHSConfig
from repro.core.mapping import BitIntervalMap
from repro.core.policy import DEFAULT_POLICY, RetryPolicy
from repro.core.retries import lim_with_replication, success_probability
from repro.core.tuples import PackedSlot, bits_of, vectors_mask, write_entry
from repro.errors import MessageDropped
from repro.hashing.family import HashFamily
from repro.hashing.vectorized import popcount64
from repro.obs import runtime as obs
from repro.obs.metrics import BUCKETS_BITS, BUCKETS_PROBES, Histogram
from repro.overlay.dht import DHTProtocol
from repro.overlay.node import Node, NodeStore
from repro.overlay.replication import entry_expiry, replica_chain
from repro.overlay.stats import OpCost
from repro.sim.seeds import rng_for
from repro.sketches.base import HashSketch
from repro.sketches.estimators import LANE_ESTIMATORS, PLANE_ESTIMATORS, Popcounts

if TYPE_CHECKING:  # annotation only — the facade constructs the arena
    from repro.core.regstore import RegArena

__all__ = ["Counter", "CountResult"]

#: Metrics per block of a counter's metric table.  A read row holds one
#: ``m``-bit lane per member, so it is at most ``64 * m`` bits wide.
_BLOCK = 64

#: Read-row key bases, unique across every counter whose rows may share
#: a node: the row of (block, position) is keyed ``row_base + position``.
_ROW_BASES = itertools.count(1 << 16, 1 << 16)


class _Block:
    """Up to :data:`_BLOCK` metrics of one counter, in first-request order.

    Member ``k`` owns bits ``[k * m, (k + 1) * m)`` of every packed mask
    and read row of the block.
    """

    __slots__ = ("members", "row_base")

    def __init__(self) -> None:
        self.members: List[Hashable] = []
        self.row_base = next(_ROW_BASES)


#: Request layouts a counter keeps for reuse; the cache empties when full.
_REQUESTS_KEPT = 256

#: How a probe reads one block: (index into the scan's blocks, row key
#: base, span of the lanes read, members, member count, TTL'd-row stamp).
_BlockRead = Tuple[int, int, int, List[Hashable], int, Tuple[int, int]]


class _Request:
    """Where one request's metrics sit in the metric table.

    ``blocks`` are the blocks the request touches; ``lanes[k]`` places
    its ``k``-th metric as (index into ``blocks``, bit offset of its
    lane) and ``places`` maps each metric to its place; ``spans[i]``
    sets every bit of every requested lane of ``blocks[i]`` — a scan's
    starting pending/active masks; ``lane_masks[i]`` holds, for those
    lanes, every bit but the top, ``2^(m-1) - 1`` in each, the top bits
    and their count; and ``rows[k]`` is the ``k``-th metric's row in
    the blocks' lane popcount matrices stacked in block order.  A metric
    never changes lane, so the layout holds while the counter lives.
    """

    __slots__ = ("blocks", "lanes", "places", "spans", "lane_masks", "rows")

    def __init__(
        self,
        metric_ids: Sequence[Hashable],
        blocks: List[_Block],
        lanes: List[Tuple[int, int]],
        spans: List[int],
        lane_tops: int,
        m: int,
    ) -> None:
        self.blocks = blocks
        self.lanes = lanes
        self.places = dict(zip(metric_ids, lanes))
        self.spans = spans
        self.lane_masks: List[Tuple[int, int, int, int]] = []
        first_rows = [0]
        for span in spans:
            tops = span & lane_tops
            self.lane_masks.append(
                (span ^ tops, tops - (tops >> (m - 1)), tops, tops.bit_count())
            )
            first_rows.append(first_rows[-1] + tops.bit_length() // m)
        self.rows = np.array([first_rows[i] + offset // m for i, offset in lanes])


class _Scan:
    """One scan: its request, and what its probes decide only once.

    ``full_reads[i]`` reads every requested lane of the request's
    ``blocks[i]``, with the stamps a current row of it carries now;
    ``exhausted`` gets one ``(p, unresolved masks)`` per budget-exhausted
    interval, in scan order.
    """

    __slots__ = (
        "metrics", "request", "blocks", "lanes", "spans", "full_reads",
        "lane_masks", "exhausted", "origin", "now", "result", "expected_items",
        "lossy", "repair", "event", "trace", "live_node", "record", "probed_ids",
    )

    def __init__(
        self,
        metrics: Sequence[Hashable],
        request: _Request,
        dht: DHTProtocol,
        config: DHSConfig,
        origin: int,
        now: int,
        result: "CountResult",
        expected_items: Optional[float],
    ) -> None:
        self.metrics = metrics
        self.request = request
        self.blocks = blocks = request.blocks
        self.lanes = request.lanes
        self.spans = spans = request.spans
        self.lane_masks = request.lane_masks
        self.exhausted: List[Tuple[float, List[int]]] = []
        self.full_reads: List[_BlockRead] = []
        for i, block in enumerate(blocks):
            size = len(block.members)
            self.full_reads.append(
                (i, block.row_base, spans[i], block.members, size, (size, now))
            )
        self.origin = origin
        self.now = now
        self.result = result
        self.expected_items = expected_items
        # Only a fault layer drops messages or silences a live node;
        # without one ``policy.call`` is a plain call for any policy and
        # ``node_responsive`` is ``is_alive``, so nodes are reached directly.
        self.lossy = dht.fault_layer is not None
        self.repair = config.read_repair and config.replication > 0
        self.event: Optional[Callable[..., None]] = (
            obs.TRACER.event if obs.TRACING else None
        )
        self.trace = dht.trace
        self.live_node = dht.live_node
        self.record = dht.load.record
        self.probed_ids = result.probed_ids


def _answering(node: Node) -> Node:
    """``dht.probe`` reader of the lossy contact: the node that answered."""
    return node


def _lane_popcounts(planes: Sequence[int], lanes: int, m: int) -> Popcounts:
    """``[lane, position]``: the set bits of each ``m``-bit lane of each plane.

    The planes hold ``lanes`` lanes from bit 0 up.  They are joined into
    one buffer of 64-bit words and popcounted in one numpy pass; a lane
    of 64 bits or more adds its ``m // 64`` word columns, narrower lanes
    share a word and are popcounted one lane slot of the word at a time.
    """
    words = -(-lanes * m // 64)
    buffer = b"".join(plane.to_bytes(8 * words, "little") for plane in planes)
    matrix = np.frombuffer(buffer, dtype="<u8").reshape(len(planes), words)
    if m >= 64:
        words_popcounts, step = popcount64(matrix), m // 64
        counts = reduce(np.add, [words_popcounts[:, k::step] for k in range(step)])
    else:
        lane = np.uint64((1 << m) - 1)
        slots = [popcount64((matrix >> np.uint64(s)) & lane) for s in range(0, 64, m)]
        counts = np.stack(slots, axis=2).reshape(len(planes), -1)[:, :lanes]
    return counts.T


class _PlaneSketches(Mapping[Hashable, HashSketch]):
    """Metric → local sketch, rebuilt from a scan's bit planes when read.

    Keeps the scan's packed planes per block and each metric's place in
    them, (block index, lane offset); a metric's planes are cut out only
    when its sketch is read.  Holds plain data only (planes, config, hash
    family), so a :class:`CountResult` pickles out of a ``run_trials``
    worker.
    """

    def __init__(
        self,
        packed: List[List[int]],
        places: Dict[Hashable, Tuple[int, int]],
        config: DHSConfig,
        hash_family: HashFamily,
    ) -> None:
        self._packed = packed
        self._places = places
        self._config = config
        self._hash_family = hash_family
        self._built: Dict[Hashable, HashSketch] = {}

    def __getitem__(self, metric: Hashable) -> HashSketch:
        sketch = self._built.get(metric)
        if sketch is None:
            i, offset = self._places[metric]
            lane = (1 << self._config.num_bitmaps) - 1
            sketch = self._config.make_sketch(self._hash_family)
            for position, plane in enumerate(self._packed[i]):
                plane = (plane >> offset) & lane
                if plane:
                    sketch.record_mask(plane, position)
            self._built[metric] = sketch
        return sketch

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._places)

    def __len__(self) -> int:
        return len(self._places)


@dataclass
class CountResult:
    """Outcome of one counting operation (possibly many metrics)."""

    estimates: Dict[Hashable, float]
    #: Per-metric local sketch holding exactly the bits the scan observed;
    #: a count materialises each one from its bit planes on first read.
    sketches: Mapping[Hashable, HashSketch]
    cost: OpCost
    #: Total node probes performed (the paper's "nodes visited" is
    #: ``unique_probed``: distinct probed nodes).
    probes: int = 0
    #: Distinct probed node ids, maintained incrementally on every probe.
    probed_ids: Set[int] = field(default_factory=set)
    #: Full probe sequence — only recorded when ``dht.trace`` is on
    #: (mirrors ``OpCost.nodes_visited``); empty otherwise.
    probed_nodes: List[int] = field(default_factory=list)
    intervals_scanned: int = 0
    #: True when any probe budget was exhausted with unresolved bitmaps
    #: or any message was lost/timed out — the estimate may be biased.
    degraded: bool = False
    #: Intervals whose probe walk ended by budget exhaustion (rather
    #: than resolving every pending bitmap or sweeping the interval).
    exhausted_intervals: int = 0
    #: Messages permanently lost during the count (retry budget spent).
    dropped_messages: int = 0
    #: Per-metric probability that no live data was missed: the product
    #: of eq. 5 success probabilities over every exhausted interval
    #: (1.0 = every interval resolved or was swept exhaustively).
    confidence: Dict[Hashable, float] = field(default_factory=dict)

    @property
    def unique_probed(self) -> int:
        """Distinct nodes probed (the paper's "nodes visited" column)."""
        return len(self.probed_ids)

    def estimate(self) -> float:
        """The single estimate (raises unless exactly one metric)."""
        if len(self.estimates) != 1:
            raise ValueError("estimate() is only defined for single-metric counts")
        return next(iter(self.estimates.values()))


class Counter:
    """Counting engine for one DHS deployment."""

    def __init__(
        self,
        dht: DHTProtocol,
        config: DHSConfig,
        mapping: BitIntervalMap,
        hash_family: HashFamily,
        seed: int = 0,
        policy: RetryPolicy = DEFAULT_POLICY,
        arena: Optional["RegArena"] = None,
    ) -> None:
        self.dht = dht
        self.config = config
        self.mapping = mapping
        self.hash_family = hash_family
        self.policy = policy
        #: Register arena (``None`` = packed store); only read repair's writes use it.
        self.arena = arena
        self._rng = rng_for(seed, "dhs-count")
        # Per-count cached histogram objects (refreshed from the active
        # registry at each metered count; see _count_many_impl) so the
        # interval loop skips the registry's name lookup.
        self._hist_probes = Histogram(BUCKETS_PROBES)
        self._hist_bits = Histogram(BUCKETS_BITS)
        # The metric table: metric -> (block, lane offset), numbered in
        # the order first requested, _BLOCK metrics to a block.
        self._blocks: List[_Block] = []
        self._places: Dict[Hashable, Tuple[_Block, int]] = {}
        m = config.num_bitmaps
        self._lane = (1 << m) - 1
        # The top bit of every lane of a full block.
        self._lane_tops = sum(1 << (lane * m + m - 1) for lane in range(_BLOCK))
        # Per-hop probe request bytes, by the number of metrics asked.
        self._hop_bytes: Dict[int, float] = {}
        self._requests: Dict[Tuple[Hashable, ...], _Request] = {}

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------
    def count(
        self,
        metric_id: Hashable,
        origin: Optional[int] = None,
        now: int = 0,
        expected_items: Optional[float] = None,
    ) -> CountResult:
        """Estimate the cardinality of one metric.

        ``expected_items`` is a prior cardinality estimate consumed by
        the ``eq6`` lim policy; with the policy active and no prior, a
        bootstrap fixed-``lim`` pass supplies one (its cost is included
        in the returned result).
        """
        return self.count_many(
            [metric_id], origin=origin, now=now, expected_items=expected_items
        )

    def count_many(
        self,
        metric_ids: Sequence[Hashable],
        origin: Optional[int] = None,
        now: int = 0,
        expected_items: Optional[float] = None,
    ) -> CountResult:
        """Estimate several metrics in one interval scan (section 4.2).

        The scan order is shared, so hop cost matches a single-metric
        count; only the response bytes grow with the metric count.
        """
        if not metric_ids:
            raise ValueError("count_many needs at least one metric id")
        if origin is None:
            origin = self.dht.random_live_node(self._rng)
        if not obs.TRACING:
            return self._count_many_impl(metric_ids, origin, now, expected_items)
        with obs.TRACER.span(
            "dhs.count", tick=now, metrics=len(metric_ids), origin=origin
        ) as span:
            result = self._count_many_impl(metric_ids, origin, now, expected_items)
            span.set(
                hops=result.cost.hops,
                messages=result.cost.messages,
                probes=result.probes,
                unique_probed=result.unique_probed,
                intervals=result.intervals_scanned,
                exhausted_intervals=result.exhausted_intervals,
                drops=result.cost.drops,
                timeouts=result.cost.timeouts,
                degraded=result.degraded,
            )
        return result

    def _count_many_impl(
        self,
        metric_ids: Sequence[Hashable],
        origin: int,
        now: int,
        expected_items: Optional[float],
    ) -> CountResult:
        """The untraced body of :meth:`count_many`."""
        if obs.METERING:
            registry = obs.METRICS
            self._hist_probes = registry.histogram("dhs.count.probes_per_interval")
            self._hist_bits = registry.histogram("dhs.count.bits_touched")
        bootstrap: Optional[CountResult] = None
        if self.config.lim_policy == "eq6" and expected_items is None:
            bootstrap = self._run_scan(metric_ids, origin, now, expected_items=None,
                                       force_fixed=True)
            estimates = [est for est in bootstrap.estimates.values() if est > 0]
            # The sparsest metric binds the probe budget.
            expected_items = min(estimates) if estimates else 0.0
        result = self._run_scan(metric_ids, origin, now, expected_items=expected_items)
        if bootstrap is not None:
            # The bootstrap pass is part of this count and ran first: its
            # cost and visits go before the main pass's.
            result.cost = bootstrap.cost.add(result.cost)
            result.probes += bootstrap.probes
            result.probed_ids |= bootstrap.probed_ids
            result.probed_nodes[:0] = bootstrap.probed_nodes
            result.intervals_scanned += bootstrap.intervals_scanned
        result.dropped_messages = result.cost.drops
        result.degraded = (
            result.exhausted_intervals > 0
            or result.cost.drops > 0
            or result.cost.timeouts > 0
        )
        if obs.METERING:
            obs.METRICS.inc("dhs.count.ops")
            if result.degraded:
                obs.METRICS.inc("dhs.count.degraded")
        return result

    def _run_scan(
        self,
        metric_ids: Sequence[Hashable],
        origin: int,
        now: int,
        expected_items: Optional[float],
        force_fixed: bool = False,
    ) -> CountResult:
        config = self.config
        adaptive = config.lim_policy == "eq6" and not force_fixed
        prior = expected_items if adaptive else None
        # One probe key per interval, drawn up front: a single pass over
        # the counting RNG per scan, independent of which intervals the
        # scan actually reaches before resolving.
        keys = self.mapping.random_keys(self._rng)
        result = CountResult(estimates={}, sketches={}, cost=OpCost())
        scan = self._begin_scan(metric_ids, origin, now, result, prior)
        # Per touched block, one packed plane per position.
        positions = config.position_bits
        packed = [[0] * positions for _ in scan.blocks]
        if config.estimator == "sll":
            self._scan_downward(scan, packed, keys)
        else:
            self._scan_upward(scan, packed, keys)
        places = scan.request.places
        result.sketches = _PlaneSketches(packed, places, config, self.hash_family)
        result.confidence = dict.fromkeys(places, 1.0)
        m = config.num_bitmaps
        if len(metric_ids) == 1:
            # A block's planes hold bits in requested lanes only: one
            # requested lane's popcounts are its planes'.
            metric = metric_ids[0]
            popcounts = list(map(int.bit_count, packed[0]))
            result.estimates[metric] = PLANE_ESTIMATORS[config.estimator](popcounts, m)
            for p, _ in scan.exhausted:
                result.confidence[metric] *= p
            return result
        # One numpy pass per block: every lane's popcount at every
        # position, then in each exhausted interval's unresolved mask.
        matrix = np.concatenate([
            _lane_popcounts(
                planes + [masks[i] for _, masks in scan.exhausted],
                tops.bit_length() // m, m,
            )
            for i, (planes, (_, _, tops, _)) in enumerate(zip(packed, scan.lane_masks))
        ])[scan.request.rows]
        estimates = LANE_ESTIMATORS[config.estimator](matrix[:, :positions], m)
        result.estimates = dict(zip(metric_ids, estimates))
        # Each metric's eq. 5 factors, multiplied in scan order.
        unresolved = matrix[:, positions:] > 0
        confidence = np.ones(len(metric_ids))
        for column, (p, _) in enumerate(scan.exhausted):
            confidence[unresolved[:, column]] *= p
        for k in np.flatnonzero(unresolved.any(axis=1)).tolist():
            result.confidence[metric_ids[k]] = float(confidence[k])
        return result

    def _begin_scan(
        self,
        metric_ids: Sequence[Hashable],
        origin: int,
        now: int,
        result: CountResult,
        expected_items: Optional[float],
    ) -> _Scan:
        """The request's layout in the metric table, and the scan's choices."""
        return _Scan(
            metric_ids, self._request(metric_ids), self.dht, self.config,
            origin, now, result, expected_items,
        )

    def _request(self, metric_ids: Sequence[Hashable]) -> _Request:
        """Place a request in the metric table (or reuse its layout).

        A metric seen for the first time joins the last block, or opens
        a new one when that block is full.
        """
        key = tuple(metric_ids)
        request = self._requests.get(key)
        if request is not None:
            return request
        # Checked once per layout: a request with a duplicate is never
        # kept, so every count that repeats one raises here.
        if len(set(metric_ids)) != len(metric_ids):
            raise ValueError("metric ids must be unique")
        m = self.config.num_bitmaps
        lane = self._lane
        places = self._places
        table = self._blocks
        blocks: List[_Block] = []
        index_of: Dict[_Block, int] = {}
        lanes: List[Tuple[int, int]] = []
        spans: List[int] = []
        for metric in metric_ids:
            place = places.get(metric)
            if place is None:
                if not table or len(table[-1].members) == _BLOCK:
                    table.append(_Block())
                block = table[-1]
                place = places[metric] = (block, len(block.members) * m)
                block.members.append(metric)
            block, offset = place
            i = index_of.get(block)
            if i is None:
                i = index_of[block] = len(blocks)
                blocks.append(block)
                spans.append(0)
            spans[i] |= lane << offset
            lanes.append((i, offset))
        request = _Request(metric_ids, blocks, lanes, spans, self._lane_tops, m)
        if len(self._requests) == _REQUESTS_KEPT:
            self._requests.clear()
        self._requests[key] = request
        return request

    def _read_row(
        self, store: NodeStore, members: Sequence[Hashable], position: int, now: int
    ) -> Tuple[int, Hashable]:
        """One read row, from the slots: ``(row, stamp)``.

        The row holds member ``k``'s live bitmap at ``position`` in lane
        ``k``.  The stamp is the member count, paired with ``now`` when a
        TTL'd entry makes the row valid at that ``now`` only.
        """
        m = self.config.num_bitmaps
        row = 0
        ttl = False
        offset = 0
        for metric in members:
            slot = store.get((metric, position))
            if isinstance(slot, PackedSlot):
                if slot.expiring:
                    ttl = True
                row |= slot.live_mask(now) << offset
            offset += m
        size = len(members)
        return row, ((size, now) if ttl else size)

    # ------------------------------------------------------------------
    # Per-interval probe budget under eq. 6 (a fixed lim is ``config.lim``).
    # ------------------------------------------------------------------
    def _interval_budget(self, index: int, position: int, expected_items: float) -> int:
        """Eq. 6 probe budget for one interval, from a prior cardinality."""
        config = self.config
        items_here = expected_items * 2.0 ** -(position + 1)
        nodes_here = max(1.0, self.mapping.expected_nodes(index, self.dht.size))
        budget = lim_with_replication(
            config.lim_target_p,
            items_here,
            nodes_here,
            m=config.num_bitmaps,
            replication=config.replication + 1,
        )
        # Bound the adaptive budget: never below 1, never runaway.
        return max(1, min(budget, 8 * config.lim))

    # ------------------------------------------------------------------
    # Downward scan (super-LogLog): first set bit seen is the maximum.
    # ------------------------------------------------------------------
    def _scan_downward(
        self, scan: _Scan, packed: List[List[int]], keys: Sequence[int]
    ) -> None:
        """Fill ``packed[i][p]`` with block ``i``'s bitmaps whose maximum is ``p``."""
        pending = list(scan.spans)
        probe = self._probe_interval if obs.TRACING else self._probe_interval_impl
        shift = self.config.bit_shift
        for index in reversed(range(self.mapping.num_intervals)):
            if not any(pending):
                break
            position = index + shift
            found = probe(index, position, pending, scan, key=keys[index])
            for i, mask in enumerate(found):
                newly = mask & pending[i]
                if newly:
                    pending[i] ^= newly
                    packed[i][position] = newly
        if shift > 0:
            # Unresolved bitmaps are assumed set below the shift.
            for i, mask in enumerate(pending):
                packed[i][shift - 1] = mask

    # ------------------------------------------------------------------
    # Upward scan (PCSA): advance while every probed bit is confirmed.
    # ------------------------------------------------------------------
    def _scan_upward(
        self, scan: _Scan, packed: List[List[int]], keys: Sequence[int]
    ) -> None:
        """Fill ``packed[i][p]`` with block ``i``'s bitmaps confirmed set up to ``p``.

        The planes are nested (a bitmap is probed at ``p`` only while
        every position below was confirmed) and contiguous from 0.
        """
        active = list(scan.spans)
        shift = self.config.bit_shift
        # Positions below the shift are assumed set (section 3.5).
        for i, span in enumerate(scan.spans):
            packed[i][:shift] = [span] * shift
        probe = self._probe_interval if obs.TRACING else self._probe_interval_impl
        for index in range(self.mapping.num_intervals):
            if not any(active):
                break
            position = index + shift
            found = probe(index, position, active, scan, key=keys[index])
            for i, mask in enumerate(active):
                # Bitmaps whose bit could not be confirmed resolve here:
                # their leftmost zero is this position (implicit in the
                # planes — they appear in none above).
                active[i] = packed[i][position] = mask & found[i]

    # ------------------------------------------------------------------
    # Interval probe: one lookup plus <= lim-1 neighbour walks (Alg. 1).
    # ------------------------------------------------------------------
    def _probe_interval(
        self,
        index: int,
        position: int,
        needed: List[int],
        scan: _Scan,
        *,
        key: int,
    ) -> List[int]:
        """Probe one interval; ``needed[i]`` is block ``i``'s pending mask.

        ``key`` is the interval's pre-drawn random probe key.  Returns,
        per block of the scan, the packed vectors found set at
        ``position`` in its pending lanes.
        """
        if not obs.TRACING:
            # Metering (when on) happens inside the impl, where the
            # probe count and found masks are already locals — the
            # delta bookkeeping below is only needed for span attrs.
            return self._probe_interval_impl(index, position, needed, scan, key)
        result = scan.result
        cost = result.cost
        probes_before = result.probes
        hops_before = cost.hops
        drops_before = cost.drops
        timeouts_before = cost.timeouts
        exhausted_before = result.exhausted_intervals
        span = obs.TRACER.start(
            "count.interval", tick=scan.now, index=index, position=position
        )
        try:
            found = self._probe_interval_impl(index, position, needed, scan, key)
        finally:
            attrs = span.attrs
            attrs["probes"] = result.probes - probes_before
            attrs["hops"] = cost.hops - hops_before
            attrs["drops"] = cost.drops - drops_before
            attrs["timeouts"] = cost.timeouts - timeouts_before
            attrs["exhausted"] = result.exhausted_intervals > exhausted_before
            obs.TRACER.end(span)
        return found

    def _probe_interval_impl(
        self,
        index: int,
        position: int,
        needed: List[int],
        scan: _Scan,
        key: int,
    ) -> List[int]:
        """The untraced body of :meth:`_probe_interval` (Alg. 1 inner loop)."""
        config = self.config
        dht = self.dht
        result = scan.result
        now = scan.now
        event = scan.event
        expected_items = scan.expected_items
        budget = (
            config.lim if expected_items is None
            else self._interval_budget(index, position, expected_items)
        )
        found = [0] * len(needed)
        # The blocks read here, each over its pending lanes: while every
        # requested lane of a block pends, the scan's own full read.
        top = config.num_bitmaps - 1
        full_reads = scan.full_reads
        lane_masks = scan.lane_masks
        reads: List[_BlockRead] = []
        metrics = 0
        for i, mask in enumerate(needed):
            if mask:
                lows, rests, tops, requested = lane_masks[i]
                # The top bit of each lane with any bit set: adding rests
                # to a lane's other bits carries into its top bit exactly
                # when they are not all zero (all operands non-negative).
                lanes = (((mask & lows) + rests) | mask) & tops
                read = full_reads[i]
                if lanes == tops:
                    metrics += requested
                else:
                    metrics += lanes.bit_count()
                    # A lane with top bit t spans (t << 1) - (t >> (m - 1)).
                    span = (lanes << 1) - (lanes >> top)
                    read = (i, read[1], span, read[3], read[4], read[5])
                reads.append(read)
        if not metrics:
            if obs.METERING:
                self._record_interval_metrics(probes_done=0, bits=0)
            return found
        result.intervals_scanned += 1
        cost = result.cost
        lossy = scan.lossy
        origin = scan.origin
        if lossy:
            try:
                lookup = self.policy.call(dht.lookup, self._rng, cost, key, origin)
            except MessageDropped:
                # Every lookup attempt was dropped: the interval is
                # unreachable this scan.  Zero probes happened, so every
                # still-pending metric takes the full zero-probe eq. 5 hit.
                if event is not None:
                    event("count.unreachable", tick=now, index=index)
                self._charge_exhaustion(
                    index, position, needed, found, scan, probes_done=0
                )
                if obs.METERING:
                    self._record_interval_metrics(probes_done=0, bits=0)
                return found
        else:
            lookup = dht.lookup(key, origin=origin)
        size_model = config.size_model
        tuple_bytes = size_model.tuple_bytes
        # One hop of a probe request; ``probe_bytes`` is linear in its
        # hops, so ``hops * hop_bytes`` is its exact value for any hops.
        hop_bytes = self._hop_bytes.get(metrics)
        if hop_bytes is None:
            hop_bytes = self._hop_bytes[metrics] = size_model.probe_bytes(
                request_hops=1, tuples_returned=0, metrics=metrics
            )
        lookup_hops = lookup.cost.hops
        cost.add(lookup.cost)
        if event is not None:
            event(
                "dht.lookup", tick=now, key=key, node=lookup.node_id, hops=lookup_hops
            )
        cost.bytes += lookup_hops * hop_bytes

        repair = scan.repair
        repair_metrics: Optional[List[Hashable]] = None
        trace = scan.trace
        live_node = scan.live_node
        record = scan.record
        probed_ids = scan.probed_ids
        read_row = self._read_row
        lo, hi = self.mapping.bounds[index]
        probes_done = 0
        node: Optional[Node]
        lost = False  # only the lossy contact can lose a probe message
        # Lazy: the next node is asked for only after the budget check,
        # from the membership as this probe's timeout repair left it.
        for target in dht.interval_owners(lo, hi, lookup.node_id):
            if probes_done:
                cost.hops += 1
                cost.messages += 1
                if trace:
                    cost.nodes_visited.append(target)
                cost.bytes += hop_bytes
            probes_done += 1
            probed_ids.add(target)
            if trace:
                result.probed_nodes.append(target)
            # Contact the node: ``None`` when it did not answer.
            if lossy:
                node, lost = None, False
                if dht.node_responsive(target):
                    try:
                        node = self.policy.call(
                            dht.probe, self._rng, cost, target, _answering
                        )
                    except MessageDropped:
                        lost = True  # already charged into ``cost`` by the policy
            else:
                node = live_node(target)
                if node is not None:
                    record(target)
                    if obs.METERING:
                        obs.METRICS.inc("dht.probes")
            if node is not None:
                rows = node.read_rows
                if rows is None:
                    rows = node.read_rows = {}
                returned = 0
                for i, row_base, span, members, size, ttl_stamp in reads:
                    row = rows.get(row_base + position)
                    if row is None or (row[1] != size and row[1] != ttl_stamp):
                        row = rows[row_base + position] = read_row(
                            node.store, members, position, now
                        )
                    hit = row[0] & span
                    if hit:
                        returned += hit.bit_count()
                        found[i] |= hit
                cost.bytes += returned * tuple_bytes
                if repair and returned:
                    if repair_metrics is None:
                        lane = self._lane
                        repair_metrics = [
                            metric
                            for metric, (i, offset) in zip(scan.metrics, scan.lanes)
                            if (needed[i] >> offset) & lane
                        ]
                    self._read_repair(node, repair_metrics, position, now, cost)
                if event is not None:
                    event("probe", tick=now, node=target, ok=True, bits=returned)
                # Only new bits can resolve the walk: before the first
                # hit every pending lane still pends, and a probe that
                # adds none leaves the answer as the last hit left it.
                if returned and all(
                    pending & got == pending for pending, got in zip(needed, found)
                ):
                    break
            elif not lost:
                # Timed-out probe of a crashed (or transiently down)
                # node — Alg. 1's failure case.  The walk hop was already
                # paid; record the timeout and walk on.  Transient nodes
                # are not evicted (the fault layer vetoes it).
                cost.timeouts += 1
                dht.timeout_repair(target)
                if event is not None:
                    event("probe", tick=now, node=target, ok=False, timeout=True)
            elif event is not None:
                event("probe", tick=now, node=target, ok=False, lost=True)
            if probes_done == budget:
                break
        result.probes += probes_done
        if probes_done == budget:
            # The walk ended on its budget (a no-op if it also resolved).
            self._charge_exhaustion(
                index, position, needed, found, scan, probes_done=probes_done
            )
        if obs.METERING:
            self._record_interval_metrics(probes_done, sum(map(int.bit_count, found)))
        return found

    def _record_interval_metrics(self, probes_done: int, bits: int) -> None:
        """Record one interval's probe/bit observations against the
        per-count cached histograms (refreshed in :meth:`_count_many_impl`)."""
        self._hist_probes.observe(probes_done)
        self._hist_bits.observe(bits)

    def _read_repair(
        self,
        source: Node,
        metrics: List[Hashable],
        position: int,
        now: int,
        cost: OpCost,
    ) -> None:
        """Re-write bits found at ``source`` onto replicas missing them.

        A crashed-and-rejoined (or amnesiac) successor silently degrades
        ``p_f^R`` bit survival; the counting walk is the natural place to
        notice, because it already read the authoritative bits.  Each
        repaired replica costs one hop plus the copied tuple bytes.
        """
        dht = self.dht
        held: List[Tuple[Hashable, PackedSlot, int]] = []
        for metric in metrics:
            slot = source.store.get((metric, position))
            if isinstance(slot, PackedSlot):
                mask = slot.live_mask(now)
                if mask:
                    held.append((metric, slot, mask))
        tuple_bytes = self.config.size_model.tuple_bytes
        for replica_id in replica_chain(dht, source.node_id, self.config.replication):
            if not dht.node_responsive(replica_id):
                continue
            replica = dht.node(replica_id)
            wrote = 0
            for metric, slot, src_mask in held:
                missing = src_mask & ~vectors_mask(replica, metric, position, now)
                for vector in bits_of(missing):
                    write_entry(
                        replica, metric, vector, position,
                        entry_expiry(slot, vector), arena=self.arena,
                    )
                    wrote += 1
            if wrote:
                cost.hops += 1
                cost.messages += 1
                cost.bytes += wrote * tuple_bytes
                cost.repair_writes += wrote
                dht.load.record(replica_id)
                if obs.METERING:
                    obs.METRICS.inc("dhs.repair.writes", wrote)
                if obs.TRACING:
                    obs.TRACER.event(
                        "read_repair", tick=now, node=replica_id, tuples=wrote
                    )

    def _charge_exhaustion(
        self,
        index: int,
        position: int,
        needed: List[int],
        found: List[int],
        scan: _Scan,
        probes_done: int,
    ) -> None:
        """Record a budget-exhausted interval and discount confidence.

        ``probes_done`` nodes of the interval were probed without
        resolving every pending bitmap; eq. 5 gives the probability that
        those probes would have found live data had there been any, and
        the end of the scan multiplies each unresolved metric's
        confidence by it.
        """
        unresolved = [pending ^ (pending & got) for pending, got in zip(needed, found)]
        if not any(unresolved):
            return
        scan.result.exhausted_intervals += 1
        nodes_here = max(1.0, self.mapping.expected_nodes(index, self.dht.size))
        expected_items = scan.expected_items
        if expected_items is not None:
            items_here = expected_items * 2.0 ** -(position + 1)
        else:
            # No prior: assume the paper's lim=5 boundary case — as many
            # interval items as interval nodes (section 4.1).
            items_here = nodes_here
        if items_here <= 0:
            return
        p = success_probability(
            (self.config.replication + 1) * items_here, nodes_here, probes_done
        )
        scan.exhausted.append((p, unresolved))
