"""Tests for the maintenance scheduler and its duty plumbing.

Covers the deterministic duty cadence (refresh / sweep / anti-entropy
on the logical clock), the vectorized refresh lane
(ndarray items must be bit-identical to the scalar bulk path).
"""

import numpy as np
import pytest

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.core.maintenance import MaintenanceConfig, MaintenanceScheduler
from repro.overlay.chord import ChordRing
from repro.overlay.faults import FaultEvent, FaultInjector, FaultPlan
from repro.overlay.stats import OpCost


def store_state(dht):
    """Full logical store state: node -> slot -> (mask, expiries)."""
    state = {}
    for node_id in dht.node_ids():
        node = dht.node(node_id)
        state[node_id] = {
            key: (slot.mask, dict(slot.expiring or {}))
            for key, slot in node.store.items()
            if hasattr(slot, "live_mask")
        }
    return state


def make_dhs(replication=2, ttl=None, n_nodes=24, plan=None, seed=5, **kwargs):
    ring = ChordRing.build(n_nodes, seed=seed)
    dht = ring if plan is None else FaultInjector(ring, plan, seed=seed)
    config = DHSConfig(
        key_bits=8, num_bitmaps=8, replication=replication,
        read_repair=replication > 0, ttl=ttl, **kwargs,
    )
    return dht, DistributedHashSketch(dht, config, seed=seed)


class TestRefreshArrayLane:
    @pytest.mark.parametrize("store", ["packed", "array"])
    def test_ndarray_refresh_bit_identical_to_bulk(self, store):
        """Satellite 1: the ndarray fast path must change nothing but speed."""
        items = np.arange(500, dtype=np.int64)
        states = {}
        costs = {}
        for lane in ("bulk", "array"):
            _, dhs = make_dhs(store=store)
            dhs.insert_bulk("docs", items.tolist(), origin=None, now=0)
            payload = items.tolist() if lane == "bulk" else items
            costs[lane] = dhs.refresh("docs", payload, now=3)
            states[lane] = store_state(dhs.dht)
        assert states["bulk"] == states["array"]
        assert costs["bulk"] == costs["array"]


class TestScheduler:
    def test_duty_cadence(self):
        _, dhs = make_dhs(ttl=4)
        dhs.insert_bulk("docs", range(200), origin=None, now=0)
        scheduler = dhs.make_scheduler(
            MaintenanceConfig(refresh_every=2, sweep_every=3, antientropy_every=2),
            refresh_fn=lambda now: OpCost(hops=7),
        )
        reports = {now: scheduler.tick(now) for now in range(1, 7)}
        assert [reports[t].refreshed for t in range(1, 7)] == [
            False, True, False, True, False, True,
        ]
        assert [reports[t].antientropy is not None for t in range(1, 7)] == [
            False, True, False, True, False, True,
        ]
        # The TTL-4 population expires by tick 6; the sweep at tick 6
        # reclaims it (tick 3's sweep sees everything still live).
        assert reports[3].swept == 0
        assert reports[6].swept > 0
        # Duty costs accumulate into the tick's report.
        assert reports[2].cost.hops >= 7

    def test_disabled_duties_never_fire(self):
        _, dhs = make_dhs()
        dhs.insert_bulk("docs", range(50), origin=None, now=0)
        scheduler = dhs.make_scheduler(MaintenanceConfig())
        for now in range(1, 5):
            report = scheduler.tick(now)
            assert not report.refreshed
            assert report.swept == 0
            assert report.antientropy is None
            assert report.cost == OpCost()

    def test_scheduler_runs_are_reproducible(self):
        def trajectory():
            plan = FaultPlan(
                events=(FaultEvent("amnesia", at=2, fraction=0.3, duration=2),)
            )
            dht, dhs = make_dhs(plan=plan)
            dhs.insert_bulk("docs", range(300), origin=None, now=0)
            scheduler = dhs.make_scheduler(
                MaintenanceConfig(antientropy_every=1, antientropy_sample=4)
            )
            out = []
            for now in range(1, 8):
                dht.advance_to(now)
                stats = scheduler.tick(now).antientropy
                assert stats is not None
                out.append(
                    (stats.pairs, stats.entries_written, stats.cost.bytes)
                )
            return out

        assert trajectory() == trajectory()

    def test_zero_sample_runs_full_rounds(self):
        """``antientropy_sample=0`` means "no sampling", like ``None``."""
        rounds = {}
        for sample in (None, 0):
            _, dhs = make_dhs()
            dhs.insert_bulk("docs", range(100), origin=None, now=0)
            scheduler = dhs.make_scheduler(
                MaintenanceConfig(antientropy_every=1, antientropy_sample=sample)
            )
            rounds[sample] = scheduler.tick(1).antientropy
        assert rounds[0] == rounds[None]
        assert rounds[0] is not None and rounds[0].pairs > 0

    def test_antientropy_drives_divergence_to_zero(self):
        plan = FaultPlan(events=(FaultEvent("amnesia", at=1, fraction=0.3, duration=2),))
        dht, dhs = make_dhs(plan=plan)
        dhs.insert_bulk("docs", range(300), origin=None, now=0)
        scheduler = dhs.make_scheduler(MaintenanceConfig(antientropy_every=1))
        dht.advance_to(3)
        assert dhs.replica_divergence(3) > 0
        for now in range(3, 8):
            scheduler.tick(now)
            if dhs.replica_divergence(now) == 0:
                break
        assert dhs.replica_divergence(7) == 0
