"""The no-fault byte-identity contract.

The fault layer, retry policies and self-healing paths were wired
through the overlay and the whole core (lookup, insert, count): the
hard guarantee of that refactor is that with an *empty* ``FaultPlan``
and the *default* ``RetryPolicy`` every number the library produces is
bit-identical to the code before the machinery existed.

Two gates enforce it:

* golden pins — core counting cells and two experiment drivers were
  recorded (``data/no_fault_golden.json``) *before* the fault-injection
  code landed; any drift in estimates, hops, bytes or probe walks under
  default settings fails here.
* a property test — wrapping any deployment in a no-plan
  :class:`~repro.overlay.faults.FaultInjector` changes nothing,
  for arbitrary seeds (contract style of ``tests/sim/test_parallel.py``).
"""

import itertools
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.core.policy import DEFAULT_POLICY, RetryPolicy
from repro.experiments.common import populate_metric
from repro.experiments.registry import run
from repro.obs import runtime as obs
from repro.obs.export import dumps_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Tracer
from repro.overlay.chord import ChordRing
from repro.overlay.faults import FaultInjector, FaultPlan
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.pastry import PastryOverlay
from repro.sim.seeds import rng_for

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "no_fault_golden.json").read_text()
)


def _core_cell(estimator, replication, wrap_in_injector=False):
    """The recorded deployment: build, populate, count, summarize."""
    ring = ChordRing.build(96, bits=32, seed=13)
    dht = ring if not wrap_in_injector else FaultInjector(ring, FaultPlan.empty())
    dhs = DistributedHashSketch(
        dht,
        DHSConfig(
            key_bits=20, num_bitmaps=32,
            estimator=estimator, replication=replication,
        ),
        seed=5,
        policy=DEFAULT_POLICY,
    )
    ins = populate_metric(dhs, "docs", np.arange(30_000), seed=3)
    origin = rng_for(7, "o").choice(ring.node_ids())
    res = dhs.count("docs", origin=origin)
    summary = {
        "est": res.estimates["docs"],
        "hops": res.cost.hops,
        "bytes": res.cost.bytes,
        "msgs": res.cost.messages,
        "probes": res.probes,
        "uniq": len(res.probed_ids),
        "ins_hops": ins.hops,
        "ins_bytes": ins.bytes,
        "intervals": res.intervals_scanned,
    }
    return summary, res, ins


class TestGoldenCoreCells:
    """Counting cells recorded before the fault machinery landed."""

    @pytest.mark.parametrize("cell", sorted(GOLDEN["core"]))
    def test_bare_ring_matches_golden(self, cell):
        estimator, replication = cell.split("/R")
        summary, _, _ = _core_cell(estimator, int(replication))
        assert summary == GOLDEN["core"][cell]

    @pytest.mark.parametrize("cell", sorted(GOLDEN["core"]))
    def test_empty_injector_matches_golden(self, cell):
        # The same cells THROUGH a no-plan FaultInjector: the wrapper
        # must be invisible down to the last byte and hop.
        estimator, replication = cell.split("/R")
        summary, res, ins = _core_cell(
            estimator, int(replication), wrap_in_injector=True
        )
        assert summary == GOLDEN["core"][cell]
        # And the new degraded-mode fields stay quiet on clean runs.
        assert not res.degraded
        assert res.exhausted_intervals == 0
        assert res.dropped_messages == 0
        assert res.confidence == {"docs": 1.0}
        assert res.cost.timeouts == 0 and res.cost.retries == 0
        assert ins.drops == 0 and ins.repair_writes == 0


class TestGoldenDrivers:
    """Whole experiment drivers pinned against their recorded tables."""

    def test_robustness_driver_unchanged(self):
        rows = run(
            "robustness",
            failure_fractions=(0.0, 0.2), replications=(0, 2),
            n_nodes=64, n_items=20_000, num_bitmaps=64, estimator="sll",
            trials=2, draws=2, seed=9,
        )
        got = [[r["p_f"], r["replication"], r["error_pct"], r["hops"]] for r in rows]
        assert got == GOLDEN["drivers"]["robustness"]

    def test_accuracy_driver_unchanged(self):
        rows = run(
            "accuracy",
            seed=9, jobs=1, ms=(16, 32), n_nodes=32, scale=2e-4,
            trials=2, hash_seeds=(0, 1),
        )
        fields = GOLDEN["drivers"]["accuracy_fields"]
        got = [[r[f] for f in fields] for r in rows]
        assert got == GOLDEN["drivers"]["accuracy"]


OVERLAYS = (ChordRing, KademliaOverlay, PastryOverlay)
STORES = ("array", "packed")
POLICIES = (
    DEFAULT_POLICY,
    RetryPolicy(max_attempts=3, backoff_hops=1, jitter_hops=2),
)


def _count_summary(overlay, store, policy, seed, wrap_in_injector):
    """Everything one observed two-metric count produces on a ring a third
    of whose nodes crashed lazily (timeout arm, shifted replica chains).

    The metrics are sparse (a handful of items per bitmap), so intervals
    take several probes to resolve and the walk — not just the lookup —
    meets the corpses.
    """
    ring = overlay.build(24, seed=seed)
    dht = (
        FaultInjector(ring, FaultPlan.empty(), seed=seed)
        if wrap_in_injector
        else ring
    )
    dhs = DistributedHashSketch(
        dht,
        DHSConfig(
            key_bits=12, num_bitmaps=16, store=store,
            replication=2, read_repair=True,
        ),
        seed=seed,
        policy=policy,
    )
    populate_metric(dhs, "docs", np.arange(120), seed=seed)
    populate_metric(dhs, "imgs", np.arange(60, 140), seed=seed)
    node_ids = sorted(dht.node_ids())
    origin = rng_for(seed, "origin").choice(node_ids)
    for node_id in node_ids[1::3]:
        if node_id != origin:
            dht.mark_failed(node_id)
    tracer, registry = Tracer(), MetricsRegistry()
    with obs.observed(tracer, registry):
        res = dhs.count_many(["docs", "imgs"], origin=origin)
    cost = res.cost
    return {
        "estimates": res.estimates,
        "cost": {
            name: getattr(cost, name)
            for name in (
                "hops", "messages", "bytes", "lookups",
                "timeouts", "retries", "drops", "repair_writes",
            )
        },
        "probes": res.probes,
        "probe_timeouts": sum(
            1 for span in tracer.find("probe") if span.attrs.get("timeout")
        ),
        "probed_ids": sorted(res.probed_ids),
        "rng": dhs._counter._rng.getstate(),
        "load": dht.load.counts(),
        "trace": dumps_jsonl(tracer.spans),
        "metrics": registry.snapshot(),
    }


class TestEmptyPlanProperty:
    """For arbitrary seeds, the no-plan injector is a perfect no-op.

    The count walk contacts nodes directly on a bare ring and through
    ``node_responsive`` + the retry policy + ``dht.probe`` behind a
    fault layer; this is the differential that pins the two contact
    forms against each other — on every overlay, both slot backends,
    with and without a retry budget, with corpses to time out on and
    read repair writing from inside the walk.
    """

    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=5, deadline=None)
    def test_wrapped_equals_bare(self, seed):
        probe_timeouts = repairs = 0
        for overlay, store, policy in itertools.product(OVERLAYS, STORES, POLICIES):
            bare = _count_summary(overlay, store, policy, seed, False)
            wrapped = _count_summary(overlay, store, policy, seed, True)
            for field, value in bare.items():
                assert wrapped[field] == value, (
                    overlay.__name__, store, policy.max_attempts, field,
                )
            probe_timeouts += bare["probe_timeouts"]
            repairs += bare["cost"]["repair_writes"]
        # The scenario reaches what it is there to compare.
        assert probe_timeouts > 0 and repairs > 0
