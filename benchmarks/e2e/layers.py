"""Per-layer metrics of one traced workload run.

Three sources, as the README's layer table describes them:

* **spans** — busy time per driver span name (``Clock.busy_ns``);
* **counts** — tallies read off the public results the ops returned
  (``OpCost``, ``CountResult``, ``MaintenanceReport.antientropy``) and
  off the final state (``storage_per_node``, ``arena.nbytes``);
* **ladder** — each layer's public function timed in isolation on
  inputs replayed from the workload (its overlay, origins, item ids,
  stored slots and rebuilt sketches), via :func:`timing.ladder_ns`.

The reconciliation rows multiply ladder costs by per-op counts and
divide by the measured op time: what is left (``core.count.self_share``)
is the Python loop of ``core/count.py`` itself.
"""

from __future__ import annotations

import random
import statistics
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.regstore import RegArena
from repro.core.tuples import PackedSlot, vectors_mask, write_entry_mask
from repro.hashing.vectorized import observations_np
from repro.overlay.chord import ChordRing
from repro.overlay.dht import DHTProtocol
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.node import Node
from repro.overlay.pastry import PastryOverlay
from repro.sim.seeds import derive_seed
from repro.sketches import SKETCH_TYPES

from timing import Clock, ladder_ns
from workloads import Workload

#: Replayed inputs per ladder batch.
BATCH = 256
#: Item ids hashed by the vectorised-hash ladder step.
HASH_ITEMS = 100_000

_FAMILIES: Dict[str, Any] = {
    "chord": ChordRing,
    "kademlia": KademliaOverlay,
    "pastry": PastryOverlay,
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _gini(values: Sequence[int]) -> float:
    """Gini coefficient of a non-negative load vector (0 = even)."""
    ordered = sorted(values)
    total = sum(ordered)
    if not total:
        return 0.0
    n = len(ordered)
    weighted = sum((index + 1) * value for index, value in enumerate(ordered))
    return 2 * weighted / (n * total) - (n + 1) / n


def _family(dht: DHTProtocol) -> str:
    inner = getattr(dht, "inner", dht)
    for name, cls in _FAMILIES.items():
        if isinstance(inner, cls):
            return name
    raise TypeError(f"unknown overlay {type(inner).__name__}")


def _median_ms(clock: Clock, name: str) -> float:
    """Median duration of the kept spans called ``name`` (0 when none)."""
    durations = [
        span.end - span.start for span in clock.spans if span.name == name and span.op >= 0
    ]
    return statistics.median(durations) / 1e6 if durations else 0.0


def span_metrics(
    workload: Workload, clock: Clock, setup_ns: Dict[str, int]
) -> Dict[str, float]:
    """Busy time per layer: ``setup_ns`` holds the set-up's span totals,
    ``clock`` those of the measured phase."""
    ns = clock.busy_ns
    calls = clock.calls

    def seconds(totals: Dict[str, int], *names: str) -> float:
        return sum(totals.get(name, 0) for name in names) / 1e9

    populate = seconds(setup_ns, "populate_metric", "populate_histogram_metrics")
    return {
        "overlay.build_s": seconds(setup_ns, "ChordRing.build", "KademliaOverlay.build"),
        "experiments.common.populate_s": populate,
        "core.insert.array_items_s": _ratio(
            workload.array_items, populate + seconds(ns, "dhs.insert_array")
        ),
        "core.insert.busy_s": seconds(ns, "dhs.insert", "dhs.insert_array"),
        "core.count.busy_s": seconds(ns, "dhs.count"),
        "histograms.busy_s": seconds(ns, "builder.reconstruct"),
        "histograms.kb_per_reconstruct": _ratio(
            workload.reconstruct_bytes / 1e3, calls.get("builder.reconstruct", 0)
        ),
        "core.maintenance.busy_s": seconds(ns, "scheduler.tick", "dhs.replica_divergence"),
        "core.maintenance.tick_ms_p50": _median_ms(clock, "scheduler.tick"),
        "core.maintenance.divergence_scan_ms": _ratio(
            ns.get("dhs.replica_divergence", 0) / 1e6,
            calls.get("dhs.replica_divergence", 0),
        ),
        "overlay.faults.busy_s": seconds(ns, "injector.advance_to"),
        "overlay.faults.events": float(workload.fault_events),
    }


def count_metrics(workload: Workload) -> Dict[str, float]:
    """Ratios of the tallies the ops' public results fed."""
    c = workload.counts
    i = workload.inserts
    m = workload.maintenance
    storage = list(workload.dhs.storage_per_node().values())
    arena = workload.dhs.arena
    return {
        "core.count.lookups_per_op": _ratio(c.lookups, c.counts),
        "core.count.probes_per_op": _ratio(c.probes, c.counts),
        "core.count.intervals_per_op": _ratio(c.intervals, c.counts),
        "core.count.unique_nodes_per_op": _ratio(c.unique_nodes, c.counts),
        "core.count.interval_resolved_ratio": 1.0 - _ratio(c.exhausted, c.intervals),
        "core.count.degraded_share": _ratio(c.degraded, c.counts),
        "core.count.retries_per_op": _ratio(c.retries, c.counts),
        "core.count.timeouts_per_op": _ratio(c.timeouts, c.counts),
        "core.count.drops_per_op": _ratio(c.drops, c.counts),
        "core.count.repair_writes_per_op": _ratio(c.repair_writes, c.counts),
        "core.insert.hops_per_item": _ratio(i.hops, i.items),
        "core.insert.bytes_per_item": _ratio(i.bytes, i.items),
        "core.insert.lookups_per_item": _ratio(i.lookups, i.items),
        "core.insert.retries_per_item": _ratio(i.retries, i.items),
        "core.regstore.arena_mb": (arena.nbytes if arena is not None else 0) / 2**20,
        "core.regstore.entries_per_node_mean": statistics.fmean(storage),
        "core.regstore.storage_gini": _gini(storage),
        "core.maintenance.divergence_mean": (
            statistics.fmean(m.divergences) if m.divergences else 0.0
        ),
        "overlay.antientropy.pairs_per_round": _ratio(m.pairs, m.rounds),
        "overlay.antientropy.converged_pair_ratio": _ratio(m.pairs_converged, m.pairs),
        "overlay.antientropy.segment_mismatch_ratio": _ratio(
            m.segments_mismatched, m.segments_checked
        ),
        "overlay.antientropy.written_per_sent_ratio": _ratio(
            m.entries_written, m.entries_sent
        ),
        "overlay.antientropy.bytes_per_round": _ratio(m.bytes, m.rounds),
    }


def _batch_ns(fn: Callable[..., Any], inputs: Sequence[Tuple[Any, ...]]) -> float:
    """ns per call of ``fn`` over a replayed input batch."""

    def run() -> None:
        for args in inputs:
            fn(*args)

    return ladder_ns(run, calls_per_iteration=len(inputs))


def _scanned_indices(workload: Workload, clock: Clock, items: Sequence[int]) -> List[int]:
    """Interval indices the workload's ops route to, ``BATCH`` of them.

    Counts scan from one end of the interval list (sLL from the top,
    PCSA from the bottom) for about ``intervals_per_op`` intervals; a
    workload that only inserts routes to the interval of each item's
    bit position.
    """
    dhs = workload.dhs
    mapping = dhs.mapping
    tally = workload.counts
    if "dhs.insert" in clock.calls:
        sketch = dhs.local_sketch([])
        last = dhs.config.position_bits - 1
        return [
            mapping.interval_index(min(sketch.observation(item)[1], last))
            for item in items
        ]
    depth = max(1, min(mapping.num_intervals, round(_ratio(tally.intervals, tally.counts))))
    downward = dhs.config.estimator != "pcsa"
    scanned = [
        mapping.num_intervals - 1 - step if downward else step for step in range(depth)
    ]
    return [scanned[n % depth] for n in range(BATCH)]


def _stored_slots(
    dht: DHTProtocol, rng: random.Random
) -> List[Tuple[Node, Any, int]]:
    """``BATCH`` stored ``(node, metric, bit)`` slots, sampled from the stores."""
    slots: List[Tuple[Node, Any, int]] = []
    for node_id in dht.node_ids():
        node = dht.node_if_materialized(node_id)
        if node is None:
            continue
        for key, value in node.store.items():
            if isinstance(value, PackedSlot):
                slots.append((node, key[0], key[1]))  # type: ignore[index]
    return rng.sample(slots, min(BATCH, len(slots)))


def ladder_metrics(workload: Workload, clock: Clock, host_factor: float) -> Dict[str, float]:
    """Each layer's public function timed in isolation on replayed inputs.

    ``host_factor`` is the host-speed factor of the measured phase: the
    ladder's times are calibrated, so the mean op times they are
    reconciled against must be too.
    """
    dhs = workload.dhs
    dht = workload.dht
    config = dhs.config
    rng = random.Random(derive_seed(workload.seed, "e2e", "ladder"))
    now = workload.now
    out: Dict[str, float] = {}

    # hashing: the vectorised pass of the bulk insert path, and the
    # scalar hash + split of the per-item path.
    first = workload.next_item
    item_ids = np.arange(first, first + HASH_ITEMS, dtype=np.int64)
    out["hashing.observations_np_ns_per_item"] = ladder_ns(
        lambda: observations_np(
            item_ids, config.num_bitmaps, config.key_bits, seed=config.hash_seed
        ),
        calls_per_iteration=HASH_ITEMS,
    )
    items = [(first + n,) for n in range(BATCH)]
    sketch = dhs.local_sketch([])
    out["hashing.scalar_hash_ns"] = _batch_ns(sketch.observation, items)

    # core.mapping: one random probe/store key inside an interval.
    indices = _scanned_indices(workload, clock, [item for (item,) in items])
    out["core.mapping.random_key_ns"] = _batch_ns(
        dhs.mapping.random_key_in_interval, [(index, rng) for index in indices]
    )

    # overlay: a routed lookup on each family (the workload's own live
    # overlay for its family, a fresh one of the same size otherwise),
    # one membership bisect, one neighbour step.
    keys = [dhs.mapping.random_key_in_interval(index, rng) for index in indices]
    own = _family(dht)
    for family, cls in _FAMILIES.items():
        overlay = (
            dht
            if family == own
            else cls.build(dht.size, seed=derive_seed(workload.seed, "ladder", family))
        )
        pairs = [(key, overlay.random_live_node(rng)) for key in keys]
        out[f"overlay.{family}.lookup_hops"] = statistics.fmean(
            overlay.lookup(key, origin=origin).cost.hops for key, origin in pairs
        )
        out[f"overlay.{family}.lookup_us"] = (
            _batch_ns(lambda key, origin, _o=overlay: _o.lookup(key, origin=origin), pairs)
            / 1e3
        )
    own_lookup_us = out[f"overlay.{own}.lookup_us"]
    out["overlay.idarray.bisect_ns"] = _batch_ns(
        dht.node_ids().bisect_left, [(key,) for key in keys]  # type: ignore[attr-defined]
    )
    origins = [(dht.random_live_node(rng),) for _ in range(BATCH)]
    out["overlay.neighbor_step_ns"] = _batch_ns(dht.successor_id, origins)

    # core.tuples: read the slots the deployment actually holds; write
    # their masks into a scratch node so every write does real work.
    slots = _stored_slots(dht, rng)
    out["core.tuples.live_mask_ns"] = _batch_ns(
        vectors_mask, [(node, metric, bit, now) for node, metric, bit in slots]
    )
    writes = [
        (n, bit, vectors_mask(node, metric, bit, now))
        for n, (node, metric, bit) in enumerate(slots)
    ]

    def write_all() -> None:
        scratch = Node(0)
        arena = RegArena(config.num_bitmaps)
        for metric, bit, mask in writes:
            write_entry_mask(scratch, metric, bit, mask, arena=arena)

    out["core.tuples.write_mask_ns"] = ladder_ns(write_all, calls_per_iteration=len(writes))

    # sketches: the record_mask calls one count's scan makes (sLL folds
    # in, from the top position down, the bitmaps not yet resolved; PCSA
    # from the bottom up, the bitmaps confirmed so far), then estimate.
    vectors, positions = observations_np(
        item_ids, config.num_bitmaps, config.key_bits, seed=config.hash_seed
    )
    masks: Dict[int, int] = {}
    for vector, position in zip(vectors.tolist(), positions.tolist()):
        position = min(position, config.position_bits - 1)
        masks[position] = masks.get(position, 0) | (1 << vector)

    def scan_records(estimator: str) -> List[Tuple[int, int]]:
        records = []
        live = (1 << config.num_bitmaps) - 1
        for position in sorted(masks, reverse=estimator != "pcsa"):
            recorded = masks[position] & live
            if recorded:
                records.append((recorded, position))
            live = recorded if estimator == "pcsa" else live & ~recorded
        return records

    def rebuild(estimator: str, records: Sequence[Tuple[int, int]]) -> Any:
        rebuilt = SKETCH_TYPES[estimator](
            m=config.num_bitmaps, key_bits=config.key_bits, hash_family=dhs.hash_family
        )
        for mask, position in records:
            rebuilt.record_mask(mask, position)
        return rebuilt

    own_records = scan_records(config.estimator)
    out["sketches.record_mask_ns"] = ladder_ns(
        lambda: rebuild(config.estimator, own_records), calls_per_iteration=len(own_records)
    )
    for estimator in ("sll", "pcsa"):
        sketch = rebuild(estimator, scan_records(estimator))
        out[f"sketches.{estimator}_estimate_us"] = ladder_ns(sketch.estimate) / 1e3
    own_estimate_us = out[f"sketches.{config.estimator}_estimate_us"]

    # Reconciliation: ladder cost x per-op counts / measured op time.
    c = workload.counts
    per_metric = c.metrics_per_count
    lookups = _ratio(c.lookups, c.counts)
    probes = _ratio(c.probes, c.counts)
    intervals = _ratio(c.intervals, c.counts)
    count_us = _ratio(
        (clock.busy_ns.get("dhs.count", 0) + clock.busy_ns.get("builder.reconstruct", 0)) / 1e3,
        c.counts * host_factor,
    )
    accounted_us = (
        lookups * own_lookup_us
        + (probes - lookups) * out["overlay.neighbor_step_ns"] / 1e3
        + probes * per_metric * out["core.tuples.live_mask_ns"] / 1e3
        + dhs.mapping.num_intervals * out["core.mapping.random_key_ns"] / 1e3
        + intervals * per_metric * out["sketches.record_mask_ns"] / 1e3
        + per_metric * own_estimate_us
    )
    out["core.count.accounted_share"] = _ratio(accounted_us, count_us)
    out["core.count.self_share"] = 1.0 - out["core.count.accounted_share"] if count_us else 0.0
    # Only the per-item path decomposes this way; insert_array hashes
    # and stores a whole batch at once.
    i = workload.inserts
    insert_us = _ratio(
        clock.busy_ns.get("dhs.insert", 0) / 1e3, clock.calls.get("dhs.insert", 0) * host_factor
    )
    out["core.insert.accounted_share"] = _ratio(
        out["hashing.scalar_hash_ns"] / 1e3
        + out["core.mapping.random_key_ns"] / 1e3
        + _ratio(i.lookups, i.items) * own_lookup_us
        + out["core.tuples.write_mask_ns"] / 1e3,
        insert_us,
    )
    return out
