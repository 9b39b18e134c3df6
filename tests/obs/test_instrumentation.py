"""Observability must never change behaviour: traced == untraced, bit for bit.

Every instrumented hot path (count walk, insert store, retry policy,
fault injector, overlay lookups) is exercised here with observability on
and off; the returned estimates and costs must be identical, the span
stack must balance, and the fault-path events/metrics must appear.
"""

import dataclasses

import numpy as np

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.core.policy import RetryPolicy
from repro.experiments.common import populate_metric
from repro.obs import runtime as obs
from repro.obs.export import dumps_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Tracer
from repro.overlay.chord import ChordRing
from repro.overlay.faults import FaultEvent, FaultInjector, FaultPlan
from repro.sim.seeds import derive_seed, rng_for


def _cost_tuple(cost):
    return tuple(
        getattr(cost, f.name)
        for f in dataclasses.fields(cost)
        if f.name != "nodes_visited"
    )


def _scenario(seed=7, plan=None, policy=None):
    """Build, populate, and count once; returns (insert_cost, result)."""
    ring = ChordRing.build(48, seed=derive_seed(seed, "ring"))
    dht = ring if plan is None else FaultInjector(ring, plan, seed=seed)
    dhs = DistributedHashSketch(
        dht,
        DHSConfig(num_bitmaps=32, key_bits=16, replication=1,
                  read_repair=True, hash_seed=seed),
        seed=seed,
        policy=policy or RetryPolicy(),
    )
    insert_cost = populate_metric(
        dhs, "m", np.arange(600, dtype=np.int64), seed=seed, now=0
    )
    if plan is not None:
        dht.advance_to(10)
    origin = dht.random_live_node(rng_for(seed, "origin"))
    result = dhs.count("m", origin=origin, now=10)
    return insert_cost, result


class TestIdentity:
    def test_fault_free_run_identical(self):
        base_insert, base = _scenario()
        tracer = Tracer()
        with obs.observed(tracer, MetricsRegistry()):
            traced_insert, traced = _scenario()
        assert traced.estimates == base.estimates
        assert _cost_tuple(traced.cost) == _cost_tuple(base.cost)
        assert _cost_tuple(traced_insert) == _cost_tuple(base_insert)
        assert traced.probes == base.probes
        assert traced.probed_ids == base.probed_ids
        assert tracer.current() is None
        assert tracer.spans

    def test_faulty_run_identical(self):
        plan = FaultPlan(
            drop_probability=0.15,
            drop_from=1,
            events=(
                FaultEvent("lazy_crash", at=2, fraction=0.1),
                FaultEvent("transient", at=3, fraction=0.1, duration=5),
                FaultEvent("amnesia", at=2, fraction=0.05, duration=4),
            ),
        )
        policy = RetryPolicy(max_attempts=3, backoff_hops=2)
        base_insert, base = _scenario(plan=plan, policy=policy)
        tracer = Tracer()
        registry = MetricsRegistry()
        with obs.observed(tracer, registry):
            traced_insert, traced = _scenario(plan=plan, policy=policy)
        assert traced.estimates == base.estimates
        assert _cost_tuple(traced.cost) == _cost_tuple(base.cost)
        assert _cost_tuple(traced_insert) == _cost_tuple(base_insert)
        assert traced.degraded == base.degraded
        assert traced.confidence == base.confidence
        assert tracer.current() is None
        # Fault machinery showed up in the trace and the metrics.
        names = {span.name for span in tracer.spans}
        assert "fault.lazy_crash" in names
        assert "fault.transient" in names
        assert "fault.rejoin" in names
        counters = registry.snapshot()["counters"]
        assert counters["dhs.faults.events"] == 3
        if base.cost.drops or base.cost.timeouts:
            assert (
                counters.get("dhs.faults.dropped_messages", 0)
                + counters.get("dhs.retry.timeouts", 0)
            ) > 0

    def test_metering_only_records_without_spans(self):
        registry = MetricsRegistry()
        with obs.observed(registry=registry, tracing=False):
            _scenario()
        assert obs.TRACER.spans == []
        snap = registry.snapshot()
        assert snap["counters"]["dhs.count.ops"] == 1
        assert snap["counters"]["dhs.insert.stores"] > 0
        assert snap["histograms"]["dhs.lookup.hops"]["count"] > 0
        assert snap["histograms"]["dhs.insert.store_hops"]["count"] > 0

    def test_retry_metrics_and_events(self):
        plan = FaultPlan(drop_probability=0.3, drop_from=0)
        policy = RetryPolicy(max_attempts=2, backoff_hops=1)
        tracer = Tracer()
        registry = MetricsRegistry()
        with obs.observed(tracer, registry):
            _scenario(plan=plan, policy=policy)
        counters = registry.snapshot()["counters"]
        assert counters["dhs.retry.timeouts"] > 0
        assert counters["dhs.retry.retries"] > 0
        names = [span.name for span in tracer.spans]
        assert "msg.retry" in names


class TestFastPathKeepsItsInstrumentation:
    """Backend equivalence under observation: the one probe walk emits the
    same spans, events and counters over the array store as over the
    packed store, timeout arm included."""

    def _observed_count(self, store):
        ring = ChordRing.build(48, seed=derive_seed(7, "ring"))
        dhs = DistributedHashSketch(
            ring, DHSConfig(num_bitmaps=32, key_bits=16, hash_seed=7, store=store), seed=7
        )
        populate_metric(dhs, "m", np.arange(600, dtype=np.int64), seed=7, now=0)
        # Corpses for the probe walk to discover: the timeout branch.
        node_ids = sorted(ring.node_ids())
        for node_id in node_ids[1::3]:
            ring.mark_failed(node_id)
        tracer, registry = Tracer(), MetricsRegistry()
        with obs.observed(tracer, registry):
            result = dhs.count("m", origin=node_ids[0], now=5)
        return result, tracer, registry

    def test_trace_and_counters_match_the_reference_walk(self):
        array, array_tracer, array_registry = self._observed_count("array")
        packed, packed_tracer, packed_registry = self._observed_count("packed")
        assert array.estimates == packed.estimates
        assert _cost_tuple(array.cost) == _cost_tuple(packed.cost)
        assert dumps_jsonl(array_tracer.spans) == dumps_jsonl(packed_tracer.spans)
        assert array_registry.snapshot() == packed_registry.snapshot()
        probes = array_tracer.find("probe")
        assert len(probes) == array.probes
        timed_out = sum(1 for span in probes if span.attrs.get("timeout"))
        assert 0 < timed_out <= array.cost.timeouts  # the rest hit lookups
        counters = array_registry.snapshot()["counters"]
        assert counters["dht.probes"] == array.probes - timed_out
