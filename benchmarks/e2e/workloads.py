"""The five DHS workloads of the end-to-end benchmark.

A workload owns its generator state (origins, op order, churn ids and
the fault plan, all drawn from ``--seed``), builds and populates its
deployment in :meth:`Workload.setup`, and performs one user-visible
operation per :meth:`Workload.op`.  Every call into the program goes
through ``clock.span(...)`` so it is timed (and, in the traced run, kept
as a span); everything the generator does happens between spans.

What the seed does *not* vary: the item ids, the DHS hash seed and the
overlay's node ids.  One sketch's error is a single draw with standard
deviation ~1.05/sqrt(m), and the hops of a count depend on where the
ring's few lowest node ids fall, so a data set or ring that changed
with the seed would make the metrics report that draw instead of the
system.  The seed varies everything done *on* that deployment: item
owners, origins, probe keys, churn and fault victims.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple, Type

import numpy as np

from repro.core.config import DHSConfig
from repro.core.count import CountResult
from repro.core.dhs import DistributedHashSketch
from repro.core.maintenance import MaintenanceConfig
from repro.core.policy import RetryPolicy
from repro.experiments.common import populate_histogram_metrics, populate_metric
from repro.experiments.soak import soak_plan
from repro.histograms.buckets import BucketSpec
from repro.histograms.builder import DHSHistogramBuilder
from repro.histograms.histogram import Histogram
from repro.overlay.chord import ChordRing
from repro.overlay.dht import DHTProtocol
from repro.overlay.faults import FaultInjector
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.stats import OpCost
from repro.sim.seeds import derive_seed
from repro.workloads.relations import Relation, make_relation

from timing import Clock

#: Hash seed of every deployment (held fixed; see the module docstring).
HASH_SEED = 2006
#: Seed of every overlay's node ids: the library's default ring.  The
#: ring is part of the deployment, like N: where its sparse top
#: intervals fall moves hops per count by 25 % from ring to ring.
RING_SEED = 0


@dataclass
class OpResult:
    """What one op cost in the simulation and what it estimated."""

    hops: int
    bytes: float
    #: ``|estimate / truth - 1|`` of every estimate the op produced.
    errors: Sequence[float] = ()
    estimates: Sequence[float] = ()
    #: Raised-equivalent outcomes: ``cost.drops > 0`` or an estimate that
    #: misses truth by more than the workload's ``error_limit``.
    failed: bool = False


@dataclass
class CountTally:
    """Per-layer counts read off every :class:`CountResult`."""

    counts: int = 0
    lookups: int = 0
    probes: int = 0
    intervals: int = 0
    exhausted: int = 0
    unique_nodes: int = 0
    degraded: int = 0
    retries: int = 0
    timeouts: int = 0
    drops: int = 0
    repair_writes: int = 0
    #: Metrics asked per count (1, or the bucket count of a histogram).
    metrics_per_count: int = 1

    def add(self, result: CountResult) -> None:
        cost = result.cost
        self.counts += 1
        self.lookups += cost.lookups
        self.probes += result.probes
        self.intervals += result.intervals_scanned
        self.exhausted += result.exhausted_intervals
        self.unique_nodes += result.unique_probed
        self.degraded += result.degraded
        self.retries += cost.retries
        self.timeouts += cost.timeouts
        self.drops += cost.drops
        self.repair_writes += cost.repair_writes


@dataclass
class InsertTally:
    """Per-layer counts read off the :class:`OpCost` of measured inserts."""

    items: int = 0
    hops: int = 0
    bytes: float = 0.0
    lookups: int = 0
    retries: int = 0

    def add(self, cost: OpCost, items: int) -> None:
        self.items += items
        self.hops += cost.hops
        self.bytes += cost.bytes
        self.lookups += cost.lookups
        self.retries += cost.retries


@dataclass
class MaintenanceTally:
    """Per-layer counts read off every ``MaintenanceReport`` and gauge."""

    rounds: int = 0
    pairs: int = 0
    pairs_converged: int = 0
    segments_checked: int = 0
    segments_mismatched: int = 0
    entries_sent: int = 0
    entries_written: int = 0
    bytes: float = 0.0
    divergences: List[int] = field(default_factory=list)


class Workload:
    """Base class: generator state plus the tallies every workload keeps."""

    name = ""
    #: Largest ``|estimate / truth - 1|`` an op may produce and still pass.
    error_limit = 0.0
    #: Ops whose simulated statistics (hops, bytes, error, digest) are
    #: reported: the first ``checked_ops`` of the run, whatever its length.
    checked_ops = 0
    #: Whether the workload injects faults (retries/timeouts are expected).
    clean = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(derive_seed(seed, "e2e", self.name))
        self.counts = CountTally()
        self.inserts = InsertTally()
        self.maintenance = MaintenanceTally()
        #: Items written through the vectorised insert paths, for
        #: ``core.insert.array_items_s``.
        self.array_items = 0
        #: Logical clock, next fresh item id, fault events applied and
        #: bytes moved by histogram reconstructions (0 where unused).
        self.now = 0
        self.next_item = 0
        self.fault_events = 0
        self.reconstruct_bytes = 0.0
        self.dht: DHTProtocol
        self.dhs: DistributedHashSketch

    def params(self) -> Dict[str, Any]:
        """The workload's parameters, for the result manifest."""
        return {}

    def setup(self, clock: Clock) -> None:
        """Build the overlay and populate / warm it up (untimed ops)."""
        raise NotImplementedError

    def op(self, clock: Clock, index: int) -> OpResult:
        """Perform op ``index``."""
        raise NotImplementedError

    def between_ops(self, clock: Clock, index: int) -> None:
        """Generator-side work before op ``index`` (churn, verification)."""

    def finish(self) -> List[str]:
        """End-of-run checks; returns the problems found."""
        return []

    def extra_errors(self) -> Sequence[float]:
        """Errors of estimates produced outside ops (verification counts)."""
        return ()

    def _count_result(self, result: CountResult, truth: float) -> OpResult:
        self.counts.add(result)
        estimate = result.estimate()
        error = abs(estimate / truth - 1.0)
        return OpResult(
            hops=result.cost.hops,
            bytes=result.cost.bytes,
            errors=(error,),
            estimates=(estimate,),
            failed=result.cost.drops > 0 or error > self.error_limit,
        )


class _CountWorkload(Workload):
    """``dhs.count`` over the paper's Q/R/S relations, round-robin."""

    overlay: Any
    n_nodes = 0
    estimator = ""
    num_bitmaps = 512
    sizes: Tuple[Tuple[str, int], ...] = (("Q", 1_000_000), ("R", 2_000_000))
    #: Batches in which every node bulk-inserts its share of a metric.
    passes = 1

    def params(self) -> Dict[str, Any]:
        return {
            "overlay": self.overlay.__name__,
            "n_nodes": self.n_nodes,
            "num_bitmaps": self.num_bitmaps,
            "key_bits": 24,
            "lim": 5,
            "estimator": self.estimator,
            "metrics": dict(self.sizes),
            "populate_passes": self.passes,
            "alpha": [n / (2 * self.num_bitmaps * self.n_nodes) for _, n in self.sizes],
        }

    def setup(self, clock: Clock) -> None:
        with clock.span(f"{self.overlay.__name__}.build"):
            self.dht = self.overlay.build(self.n_nodes, seed=RING_SEED)
        self.dhs = DistributedHashSketch(
            self.dht,
            DHSConfig(
                num_bitmaps=self.num_bitmaps,
                estimator=self.estimator,
                hash_seed=HASH_SEED,
            ),
            seed=derive_seed(self.seed, "dhs"),
        )
        base = 0
        for metric, size in self.sizes:
            item_ids = np.arange(base, base + size, dtype=np.int64)
            base += size
            for batch, part in enumerate(np.array_split(item_ids, self.passes)):
                with clock.span("populate_metric"):
                    populate_metric(
                        self.dhs, metric, part, seed=derive_seed(self.seed, metric, batch)
                    )
            self.array_items += size

    def op(self, clock: Clock, index: int) -> OpResult:
        metric, truth = self.sizes[index % len(self.sizes)]
        origin = self.dht.random_live_node(self.rng)
        with clock.span("dhs.count"):
            result = self.dhs.count(metric, origin=origin)
        return self._count_result(result, truth)


class CountSLL(_CountWorkload):
    """The paper's headline op on its own overlay, at Table 2 load."""

    name = "count-sll"
    error_limit = 0.25
    checked_ops = 3000
    overlay = ChordRing
    n_nodes = 1024
    estimator = "sll"


class CountPCSAKad(_CountWorkload):
    """PCSA's upward scan, on the one non-Chord overlay measured end to end."""

    name = "count-pcsa-kad"
    error_limit = 0.30
    checked_ops = 900
    overlay = KademliaOverlay
    # N=256 and four insert batches per node, not the N=1024 and one
    # batch of count-sll: PCSA needs every bitmap confirmed at every low
    # position within lim probes, and one bulk insert per node leaves a
    # third of the nodes of the wide intervals empty (see README,
    # "Findings"); a benchmark workload is one on which no op fails.
    n_nodes = 256
    estimator = "pcsa"
    passes = 4


class InsertChurn(Workload):
    """The per-item write path while nodes join and leave."""

    name = "insert-churn"
    error_limit = 0.5
    checked_ops = 30_000
    n_nodes = 4096
    num_bitmaps = 64
    populated = 2_000_000
    churn_every = 200
    verification_counts = 50

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.next_item = self.populated
        self._verify_errors: List[float] = []

    def params(self) -> Dict[str, Any]:
        return {
            "overlay": "ChordRing",
            "n_nodes": self.n_nodes,
            "num_bitmaps": self.num_bitmaps,
            "estimator": "sll",
            "populated_items": self.populated,
            "churn_every_ops": self.churn_every,
            "verification_counts": self.verification_counts,
        }

    def setup(self, clock: Clock) -> None:
        with clock.span("ChordRing.build"):
            self.dht = ChordRing.build(self.n_nodes, seed=RING_SEED)
        self.dhs = DistributedHashSketch(
            self.dht,
            DHSConfig(num_bitmaps=self.num_bitmaps, hash_seed=HASH_SEED),
            seed=derive_seed(self.seed, "dhs"),
        )
        item_ids = np.arange(self.populated, dtype=np.int64)
        with clock.span("populate_metric"):
            populate_metric(
                self.dhs, "events", item_ids, seed=derive_seed(self.seed, "events")
            )
        self.array_items += self.populated

    def between_ops(self, clock: Clock, index: int) -> None:
        if index and index % self.churn_every == 0:
            leaver = self.dht.random_live_node(self.rng)
            # Without replication a join hands no keys over, so a joiner
            # below the lowest node would mask the top bit positions it
            # now owns (see README, "Findings"): ids are drawn above it.
            lowest = self.dht.node_ids()[0]
            joiner = self.rng.randrange(lowest, self.dht.space.size)
            while self.dht.has_node(joiner):
                joiner = self.rng.randrange(lowest, self.dht.space.size)
            with clock.span("overlay.remove_node"):
                self.dht.remove_node(leaver, graceful=True)
            with clock.span("overlay.add_node"):
                self.dht.add_node(joiner)
        if index == self.checked_ops:
            self._verify(clock)

    def _verify(self, clock: Clock) -> None:
        """Count what was written so far; feeds ``rel_error_pct``."""
        truth = float(self.next_item)
        for _ in range(self.verification_counts):
            origin = self.dht.random_live_node(self.rng)
            with clock.span("dhs.count"):
                result = self.dhs.count("events", origin=origin)
            self._verify_errors.append(self._count_result(result, truth).errors[0])

    def op(self, clock: Clock, index: int) -> OpResult:
        item = self.next_item
        self.next_item += 1
        origin = self.dht.random_live_node(self.rng)
        with clock.span("dhs.insert"):
            cost = self.dhs.insert("events", item, origin=origin)
        self.inserts.add(cost, 1)
        return OpResult(hops=cost.hops, bytes=cost.bytes, failed=cost.drops > 0)

    def extra_errors(self) -> Sequence[float]:
        return self._verify_errors

    def finish(self) -> List[str]:
        limit = self.error_limit
        bad = sum(1 for error in self._verify_errors if error > limit)
        if len(self._verify_errors) != self.verification_counts:
            return ["verification counts did not run"]
        return [f"{bad} verification counts off by more than {limit}"] if bad else []


@functools.lru_cache(maxsize=1)
def _relation(tuples: int) -> Relation:
    """The histogram workload's relation: generated input, built once per
    process (outside the timed set-up) and, being data rather than
    network behaviour, from a fixed seed."""
    return make_relation("R", tuples, theta=0.7, seed=HASH_SEED)


class HistMulti(Workload):
    """Histogram reconstruction: one ``count_many`` over 100 bucket metrics."""

    name = "hist-multi"
    error_limit = 0.5
    checked_ops = 300
    n_nodes = 64
    num_bitmaps = 128
    tuples = 1_000_000
    buckets = 100

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        _relation(self.tuples)

    def params(self) -> Dict[str, Any]:
        return {
            "overlay": "ChordRing",
            "n_nodes": self.n_nodes,
            "num_bitmaps": self.num_bitmaps,
            "estimator": "sll",
            "relation_tuples": self.tuples,
            "zipf_theta": 0.7,
            "buckets": self.buckets,
        }

    def setup(self, clock: Clock) -> None:
        with clock.span("ChordRing.build"):
            self.dht = ChordRing.build(self.n_nodes, seed=RING_SEED)
        self.dhs = DistributedHashSketch(
            self.dht,
            DHSConfig(num_bitmaps=self.num_bitmaps, hash_seed=HASH_SEED),
            seed=derive_seed(self.seed, "dhs"),
        )
        relation = _relation(self.tuples)
        spec = BucketSpec.equi_width(relation.domain[0], relation.domain[1], self.buckets)
        with clock.span("populate_histogram_metrics"):
            populate_histogram_metrics(
                self.dhs, relation, self.buckets, seed=derive_seed(self.seed, "R")
            )
        self.array_items += self.tuples
        self.builder = DHSHistogramBuilder(self.dhs, spec, relation.name)
        self.exact = Histogram.exact(spec, relation.values)
        self.counts.metrics_per_count = self.buckets

    def op(self, clock: Clock, index: int) -> OpResult:
        origin = self.dht.random_live_node(self.rng)
        with clock.span("builder.reconstruct"):
            reconstruction = self.builder.reconstruct(origin=origin)
        result = reconstruction.count_result
        self.counts.add(result)
        self.reconstruct_bytes += result.cost.bytes
        error = reconstruction.histogram.mean_cell_error(self.exact)
        return OpResult(
            hops=result.cost.hops,
            bytes=result.cost.bytes,
            errors=(error,),
            estimates=tuple(reconstruction.histogram.counts),
            failed=result.cost.drops > 0 or error > self.error_limit,
        )


class SoakChurn(Workload):
    """One tick of a faulty, self-healing, TTL'd deployment."""

    name = "soak-churn"
    error_limit = 0.5
    checked_ops = 240
    clean = False
    n_nodes = 256
    num_bitmaps = 128
    replication = 2
    ttl = 100
    warmup_ticks = 100
    items_per_tick = 1000
    fault_every = 12
    fault_fraction = 0.15
    fault_duration = 4
    #: Far beyond any run: the plan never ends inside the measured phase.
    plan_ticks = 200_000

    def params(self) -> Dict[str, Any]:
        return {
            "overlay": "FaultInjector(ChordRing)",
            "n_nodes": self.n_nodes,
            "num_bitmaps": self.num_bitmaps,
            "estimator": "sll",
            "replication": self.replication,
            "read_repair": True,
            "ttl": self.ttl,
            "retry": {"max_attempts": 3, "backoff_hops": 1},
            "maintenance": {"sweep_every": 4, "antientropy_every": 1},
            "warmup_ticks": self.warmup_ticks,
            "items_per_tick": self.items_per_tick,
            "fault_every": self.fault_every,
            "fault_fraction": self.fault_fraction,
            "fault_duration": self.fault_duration,
        }

    def setup(self, clock: Clock) -> None:
        with clock.span("ChordRing.build"):
            ring = ChordRing.build(self.n_nodes, seed=RING_SEED)
        plan = soak_plan(
            self.plan_ticks, self.fault_every, self.fault_fraction, self.fault_duration
        )
        self._event_ticks = {event.at for event in plan.events}
        self.injector = FaultInjector(ring, plan, seed=derive_seed(self.seed, "faults"))
        self.dht = self.injector
        self.dhs = DistributedHashSketch(
            self.injector,
            DHSConfig(
                num_bitmaps=self.num_bitmaps,
                replication=self.replication,
                read_repair=True,
                ttl=self.ttl,
                hash_seed=HASH_SEED,
            ),
            seed=derive_seed(self.seed, "dhs"),
            policy=RetryPolicy(max_attempts=3, backoff_hops=1),
        )
        self.scheduler = self.dhs.make_scheduler(
            MaintenanceConfig(sweep_every=4, antientropy_every=1)
        )
        for _ in range(self.warmup_ticks):
            self._tick(clock)
        # The tallies describe the measured phase only.
        self.counts = CountTally()
        self.inserts = InsertTally()
        self.maintenance = MaintenanceTally()
        self.array_items = 0
        self.fault_events = 0

    def _tick(self, clock: Clock) -> OpResult:
        self.now = now = self.now + 1
        injector = self.injector
        with clock.span("injector.advance_to"):
            injector.advance_to(now)
        self.fault_events += now in self._event_ticks
        # Crash events shrink the membership; fresh empty joiners top it
        # back up so the ring size is stationary while it churns.
        while len(injector.node_ids()) < self.n_nodes:
            joiner = self.rng.randrange(injector.space.size)
            while injector.has_node(joiner):
                joiner = self.rng.randrange(injector.space.size)
            with clock.span("overlay.add_node"):
                injector.inner.add_node(joiner)
        batch = np.arange(
            self.next_item, self.next_item + self.items_per_tick, dtype=np.int64
        )
        self.next_item += self.items_per_tick
        origin = injector.random_live_node(self.rng)
        with clock.span("dhs.insert_array"):
            insert_cost = self.dhs.insert_array("events", batch, origin=origin, now=now)
        self.inserts.add(insert_cost, self.items_per_tick)
        self.array_items += self.items_per_tick
        with clock.span("scheduler.tick"):
            report = self.scheduler.tick(now)
        with clock.span("dhs.replica_divergence"):
            divergence = self.dhs.replica_divergence(now)
        tally = self.maintenance
        tally.divergences.append(divergence)
        stats = report.antientropy
        if stats is not None:
            tally.rounds += 1
            tally.pairs += stats.pairs
            tally.pairs_converged += stats.pairs_converged
            tally.segments_checked += stats.segments_checked
            tally.segments_mismatched += stats.segments_mismatched
            tally.entries_sent += stats.entries_sent
            tally.entries_written += stats.entries_written
            tally.bytes += stats.cost.bytes
        origin = injector.random_live_node(self.rng)
        with clock.span("dhs.count"):
            result = self.dhs.count("events", origin=origin, now=now)
        # An item written at tick t expires after tick t + ttl.
        truth = float(min(now, self.ttl + 1) * self.items_per_tick)
        counted = self._count_result(result, truth)
        counted.hops += insert_cost.hops + report.cost.hops
        counted.bytes += insert_cost.bytes + report.cost.bytes
        counted.failed = counted.failed or insert_cost.drops > 0
        return counted

    def op(self, clock: Clock, index: int) -> OpResult:
        return self._tick(clock)

    def finish(self) -> List[str]:
        """Tick on (not ops) until the replica chains have converged."""
        clock = Clock()
        for _ in range(2 * self.fault_every):
            if self.maintenance.divergences[-1] == 0:
                return []
            self._tick(clock)
        if self.maintenance.divergences[-1] == 0:
            return []
        return [f"replica_divergence {self.maintenance.divergences[-1]} after draining"]


WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls for cls in (CountSLL, CountPCSAKad, InsertChurn, HistMulti, SoakChurn)
}
