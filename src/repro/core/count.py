"""DHS counting — the paper's Algorithm 1, for both estimator families.

Counting walks the id-space intervals and, per interval, probes up to
``lim`` nodes asking "which vectors have bit ``r`` set for these
metrics?": one DHT lookup of an interval key, then one hop per node of
the overlay's :meth:`~repro.overlay.dht.DHTProtocol.interval_owners`.

* super-LogLog / LogLog / HLL scan **high → low** and record, per
  bitmap, the *first* set bit seen — its maximum (Alg. 1).
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
assumed-set planes).  The estimate is computed from the planes'
popcounts by the pure functions of :mod:`repro.sketches.estimators` —
the same functions the local sketches' ``estimate()`` call, so the
distributed estimate is bit-identical to the centralized one — in
O(positions) integer operations per metric.  No sketch object is built
to count; :attr:`CountResult.sketches` rebuilds one from the planes only
when a caller reads it (set expressions over metrics, tests).

Hot path: the per-metric bookkeeping (pending / active / found vectors)
is kept as packed integer bitmaps throughout, so a probe answers "which
of these pending vectors are set here?" with one ``int &`` per metric
against the node's :class:`~repro.core.tuples.PackedSlot` mask.  The
per-interval random probe keys are drawn up front, one per interval,
by :meth:`~repro.core.mapping.BitIntervalMap.random_keys`: one pass
over the counting RNG per scan, straight from the mapping's
``(lo, width, bits)`` table, consuming the RNG exactly as one
``randrange(lo, hi)`` per interval would.  Per-probe node-id recording
is gated behind ``dht.trace`` — the ``probes``/``unique_probed``
counters stay exact.  Whether a scan is traced is decided once per
scan, and an interval's budget, bounds and per-hop probe bytes once per
interval.

There is one probe walk: every probe contacts the node, reads its slots,
charges the bytes, read-repairs when configured and emits one ``probe``
event.  Only the contact is chosen, per interval: under the retry policy
when the overlay carries a fault layer (the only source of dropped
messages and of live nodes that do not answer), directly otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
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

from repro.core.config import DHSConfig
from repro.core.mapping import BitIntervalMap
from repro.core.policy import DEFAULT_POLICY, RetryPolicy
from repro.core.retries import lim_with_replication, success_probability
from repro.core.tuples import PackedSlot, bits_of, vectors_mask, write_entry
from repro.errors import MessageDropped
from repro.hashing.family import HashFamily
from repro.obs import runtime as obs
from repro.obs.metrics import BUCKETS_BITS, BUCKETS_PROBES, Histogram
from repro.overlay.dht import DHTProtocol
from repro.overlay.node import Node
from repro.overlay.replication import entry_expiry, replica_chain
from repro.overlay.stats import OpCost
from repro.sim.seeds import rng_for
from repro.sketches.base import HashSketch
from repro.sketches.estimators import HLL_EXACT_KEY_BITS, PLANE_ESTIMATORS

if TYPE_CHECKING:  # annotation only — the facade constructs the arena
    from repro.core.regstore import RegArena

__all__ = ["Counter", "CountResult"]

#: Estimators that scan from the most significant position downwards.
_DOWNWARD_ESTIMATORS = {"sll", "loglog", "hll"}


def _answering(node: Node) -> Node:
    """``dht.probe`` reader of the lossy contact: the node that answered."""
    return node


class _PlaneSketches(Mapping[Hashable, HashSketch]):
    """Metric → local sketch, rebuilt from a scan's bit planes when read.

    Holds plain data only (planes, config, hash family), so a
    :class:`CountResult` pickles out of a ``run_trials`` worker.
    """

    def __init__(
        self,
        planes: Dict[Hashable, List[int]],
        config: DHSConfig,
        hash_family: HashFamily,
    ) -> None:
        self._planes = planes
        self._config = config
        self._hash_family = hash_family
        self._built: Dict[Hashable, HashSketch] = {}

    def __getitem__(self, metric: Hashable) -> HashSketch:
        sketch = self._built.get(metric)
        if sketch is None:
            planes = self._planes[metric]
            sketch = self._config.make_sketch(self._hash_family)
            for position, plane in enumerate(planes):
                if plane:
                    sketch.record_mask(plane, position)
            self._built[metric] = sketch
        return sketch

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._planes)

    def __len__(self) -> int:
        return len(self._planes)


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
        if len(set(metric_ids)) != len(metric_ids):
            raise ValueError("metric ids must be unique")
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
        if config.estimator in _DOWNWARD_ESTIMATORS:
            scan = self._scan_downward
        else:
            scan = self._scan_upward
        planes: Dict[Hashable, List[int]] = {
            metric: [0] * config.position_bits for metric in metric_ids
        }
        result = CountResult(
            estimates={},
            sketches=_PlaneSketches(planes, config, self.hash_family),
            cost=OpCost(),
            confidence={metric: 1.0 for metric in metric_ids},
        )
        scan(planes, origin, now, keys, result, prior)
        if config.estimator == "hll" and config.key_bits > HLL_EXACT_KEY_BITS:
            # The histogram sum could round differently from the
            # per-register one: read the rebuilt registers instead.
            result.estimates = {
                metric: sketch.estimate() for metric, sketch in result.sketches.items()
            }
        else:
            estimate = PLANE_ESTIMATORS[config.estimator]
            m = config.num_bitmaps
            result.estimates = {
                metric: estimate(metric_planes, m)
                for metric, metric_planes in planes.items()
            }
        return result

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
    # Downward scan (LogLog family): first set bit seen is the maximum.
    # ------------------------------------------------------------------
    def _scan_downward(
        self,
        planes: Dict[Hashable, List[int]],
        origin: int,
        now: int,
        keys: Sequence[int],
        result: CountResult,
        expected_items: Optional[float] = None,
    ) -> None:
        """Fill ``planes[metric][p]`` with the bitmaps whose maximum is ``p``."""
        config = self.config
        full = (1 << config.num_bitmaps) - 1
        pending: Dict[Hashable, int] = {metric: full for metric in planes}
        probe = self._probe_interval if obs.TRACING else self._probe_interval_impl
        shift = config.bit_shift
        for index in reversed(range(self.mapping.num_intervals)):
            if not any(pending.values()):
                break
            position = index + shift
            found = probe(
                index, position, pending, origin, now, result, expected_items,
                key=keys[index],
            )
            for metric, mask in found.items():
                newly = mask & pending[metric]
                if newly:
                    pending[metric] &= ~newly
                    planes[metric][position] = newly
        if config.bit_shift > 0:
            # Unresolved bitmaps are assumed set below the shift.
            for metric, mask in pending.items():
                planes[metric][config.bit_shift - 1] = mask

    # ------------------------------------------------------------------
    # Upward scan (PCSA): advance while every probed bit is confirmed.
    # ------------------------------------------------------------------
    def _scan_upward(
        self,
        planes: Dict[Hashable, List[int]],
        origin: int,
        now: int,
        keys: Sequence[int],
        result: CountResult,
        expected_items: Optional[float] = None,
    ) -> None:
        """Fill ``planes[metric][p]`` with the bitmaps confirmed set up to ``p``.

        The planes are nested (a bitmap is probed at ``p`` only while
        every position below was confirmed) and contiguous from 0.
        """
        config = self.config
        full = (1 << config.num_bitmaps) - 1
        active: Dict[Hashable, int] = {metric: full for metric in planes}
        # Positions below the shift are assumed set (section 3.5).
        for metric_planes in planes.values():
            metric_planes[: config.bit_shift] = [full] * config.bit_shift
        probe = self._probe_interval if obs.TRACING else self._probe_interval_impl
        shift = config.bit_shift
        for index in range(self.mapping.num_intervals):
            if not any(active.values()):
                break
            position = index + shift
            found = probe(
                index, position, active, origin, now, result, expected_items,
                key=keys[index],
            )
            for metric, mask in active.items():
                # Bitmaps whose bit could not be confirmed resolve here:
                # their leftmost zero is this position (implicit in the
                # planes — they appear in none above).
                active[metric] = planes[metric][position] = mask & found.get(metric, 0)

    # ------------------------------------------------------------------
    # Interval probe: one lookup plus <= lim-1 neighbour walks (Alg. 1).
    # ------------------------------------------------------------------
    def _probe_interval(
        self,
        index: int,
        position: int,
        needed: Dict[Hashable, int],
        origin: int,
        now: int,
        result: CountResult,
        expected_items: Optional[float] = None,
        *,
        key: int,
    ) -> Dict[Hashable, int]:
        """Probe one interval; ``needed`` maps metric → pending bitmap.

        ``key`` is the interval's pre-drawn random probe key.  Returns
        metric → bitmap of vectors found set at ``position``.
        """
        if not obs.TRACING:
            # Metering (when on) happens inside the impl, where the
            # probe count and found masks are already locals — the
            # delta bookkeeping below is only needed for span attrs.
            return self._probe_interval_impl(
                index, position, needed, origin, now, result, expected_items, key
            )
        cost = result.cost
        probes_before = result.probes
        hops_before = cost.hops
        drops_before = cost.drops
        timeouts_before = cost.timeouts
        exhausted_before = result.exhausted_intervals
        span = obs.TRACER.start(
            "count.interval", tick=now, index=index, position=position
        )
        try:
            found = self._probe_interval_impl(
                index, position, needed, origin, now, result, expected_items, key
            )
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
        needed: Dict[Hashable, int],
        origin: int,
        now: int,
        result: CountResult,
        expected_items: Optional[float],
        key: int,
    ) -> Dict[Hashable, int]:
        """The untraced body of :meth:`_probe_interval` (Alg. 1 inner loop)."""
        event = obs.TRACER.event if obs.TRACING else None
        config = self.config
        dht = self.dht
        budget = (
            config.lim if expected_items is None
            else self._interval_budget(index, position, expected_items)
        )
        metrics = [metric for metric, mask in needed.items() if mask]
        found: Dict[Hashable, int] = {metric: 0 for metric in metrics}
        if not metrics:
            if obs.METERING:
                self._record_interval_metrics(probes_done=0, bits=0)
            return found
        result.intervals_scanned += 1
        cost = result.cost
        # The walk's one selection: how a node is contacted.  Only a fault
        # layer drops messages or silences a live node; without one
        # ``policy.call`` is a plain call for any policy and
        # ``node_responsive`` is ``is_alive``, so the node is reached directly.
        lossy = dht.fault_layer is not None
        if lossy:
            try:
                lookup = self.policy.call(
                    lambda: dht.lookup(key, origin=origin), self._rng, cost
                )
            except MessageDropped:
                # Every lookup attempt was dropped: the interval is
                # unreachable this scan.  Zero probes happened, so every
                # still-pending metric takes the full zero-probe eq. 5 hit.
                if event is not None:
                    event("count.unreachable", tick=now, index=index)
                self._charge_exhaustion(
                    index, position, metrics, needed, found, result,
                    expected_items, probes_done=0,
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
        hop_bytes = size_model.probe_bytes(
            request_hops=1, tuples_returned=0, metrics=len(metrics)
        )
        lookup_hops = lookup.cost.hops
        cost.add(lookup.cost)
        if event is not None:
            event(
                "dht.lookup", tick=now, key=key, node=lookup.node_id, hops=lookup_hops
            )
        cost.bytes += lookup_hops * hop_bytes

        repair = config.read_repair and config.replication > 0
        trace = dht.trace
        live_node = dht.live_node
        record = dht.load.record
        probed_ids = result.probed_ids
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
                            lambda: dht.probe(target, _answering), self._rng, cost
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
                store = node.store
                returned = 0
                for metric in metrics:
                    slot = store.get((metric, position))
                    if isinstance(slot, PackedSlot):
                        mask = slot.live_mask(now)
                        if mask:
                            returned += mask.bit_count()
                            found[metric] |= mask
                cost.bytes += returned * tuple_bytes
                if repair and returned:
                    self._read_repair(node, metrics, position, now, cost)
                if event is not None:
                    event("probe", tick=now, node=target, ok=True, bits=returned)
                # Only new bits can resolve the walk: before the first
                # hit every metric still pends (``metrics`` holds only
                # pending ones), and a probe that adds none leaves the
                # answer as the last hit left it.
                if returned and all(
                    not (needed[metric] & ~found[metric]) for metric in metrics
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
                index, position, metrics, needed, found, result,
                expected_items, probes_done=probes_done,
            )
        if obs.METERING:
            bits = sum(map(int.bit_count, found.values()))
            self._record_interval_metrics(probes_done, bits)
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
        metrics: List[Hashable],
        needed: Dict[Hashable, int],
        found: Dict[Hashable, int],
        result: CountResult,
        expected_items: Optional[float],
        probes_done: int,
    ) -> None:
        """Record a budget-exhausted interval and discount confidence.

        ``probes_done`` nodes of the interval were probed without
        resolving every pending bitmap; eq. 5 gives the probability that
        those probes would have found live data had there been any, so
        each unresolved metric's confidence is multiplied by it.
        """
        unresolved = [
            metric for metric in metrics if needed[metric] & ~found[metric]
        ]
        if not unresolved:
            return
        result.exhausted_intervals += 1
        nodes_here = max(1.0, self.mapping.expected_nodes(index, self.dht.size))
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
        for metric in unresolved:
            result.confidence[metric] = result.confidence.get(metric, 1.0) * p
