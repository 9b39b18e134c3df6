"""Internet-scale smoke tier (run with ``pytest -m scale``).

Excluded from tier-1 by the ``-m "not scale"`` default: these tests
build N=10^5 rings, which is seconds of work rather than milliseconds.
They gate the ROADMAP's deployment-size axis: ring construction within
a fixed budget, O(log N) routing at a size the paper only extrapolated
to, and ``DHS_JOBS`` byte-identity for a full counting cell at N=10^5 —
plus the three checks the repository benchmark (``benchmarks/e2e``)
cannot express: the cost of tracing a count (it never enables
``repro.obs``), a 10^5-tenant Zipf populate, and the 200-tick soak.

Wall-clock and RSS measurements live here (and in benchmarks) ONLY —
never inside experiment trial cells, where they would break the
bit-identity contract.
"""

import gc
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.experiments.multitenant import populate_tenants
from repro.experiments.registry import run
from repro.experiments.scalability import fit_log2_coefficient
from repro.experiments.soak import GATE
from repro.obs import runtime as obs
from repro.obs.metrics import (
    GAUGE_RING_BUILD_SECONDS,
    GAUGE_RING_PEAK_RSS_BYTES,
    MetricsRegistry,
)
from repro.obs.span import Tracer
from repro.overlay.chord import ChordRing
from repro.sim.seeds import rng_for
from repro.workloads.multitenant import load_balance, tenant_op_counts

pytestmark = pytest.mark.scale

#: The scale-tier deployment size (3 orders past the paper's 1024).
N_SCALE = 100_000

#: Generous wall-clock budget for building the N=10^5 ring (measured
#: ~0.1 s on a dev box; the budget absorbs slow CI runners while still
#: catching a reintroduced quadratic construction path instantly).
BUILD_BUDGET_SECONDS = 30.0


def _peak_rss_bytes() -> float:
    try:
        import resource

        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024.0
    except (ImportError, ValueError):  # pragma: no cover - non-POSIX
        return 0.0


class TestScaleSmoke:
    def test_ring_build_within_budget(self):
        started = time.perf_counter()
        ring = ChordRing.build(N_SCALE, seed=13)
        elapsed = time.perf_counter() - started
        obs.METRICS.set_gauge(GAUGE_RING_BUILD_SECONDS, elapsed)
        obs.METRICS.set_gauge(GAUGE_RING_PEAK_RSS_BYTES, _peak_rss_bytes())
        assert ring.size == N_SCALE
        assert elapsed < BUILD_BUDGET_SECONDS
        assert ring._nodes == {}  # memory-lean: zero nodes materialized
        assert ring.membership_nbytes() / ring.size == 8

    def test_mean_lookup_hops_tracks_half_log2_n(self):
        ring = ChordRing.build(N_SCALE, seed=13)
        rng = rng_for(13, "scale-lookups")
        hops = []
        for _ in range(300):
            origin = ring.random_live_node(rng)
            key = rng.randrange(ring.space.size)
            hops.append(ring.lookup(key, origin=origin).cost.hops)
        mean_hops = sum(hops) / len(hops)
        expected = 0.5 * math.log2(N_SCALE)  # ~8.3 hops
        assert mean_hops <= 2.0 * expected
        assert mean_hops >= 0.25 * expected  # sanity floor: still routing

    def test_seeded_count_byte_identical_across_jobs_and_log_fit(self):
        """One N=10^5 counting cell: DHS_JOBS=1 == DHS_JOBS=4 bit-for-bit,
        and measured counting hops stay within 2x of the O(log N) fit
        anchored to the paper-sized (N<=10^4) cells."""
        kwargs = dict(
            node_counts=(1000, 10_000, N_SCALE),
            num_bitmaps=32,
            scale=1e-3,
            trials=2,
            seed=7,
        )
        serial = run("scalability", jobs=1, **kwargs)
        parallel = run("scalability", jobs=4, **kwargs)
        assert serial == parallel  # byte-identity at any DHS_JOBS width
        coefficient = fit_log2_coefficient(serial)
        assert coefficient > 0.0
        for row in serial:
            if row["n_nodes"] == N_SCALE:
                predicted = coefficient * math.log2(row["n_nodes"])
                assert row["hops"] <= 2.0 * predicted


#: What tracing (spans + events + counters) may add to a count, per
#: interval scanned: interpreter calls (measured 28.4) and bytes of
#: trace kept (measured 1.29 kB).  Both are counts, not timings, so the
#: budget neither flakes on a busy host nor moves when the untraced
#: count gets faster.
TRACED_CALLS_PER_INTERVAL_BUDGET = 30
TRACED_BYTES_PER_INTERVAL_BUDGET = 1536


def _chord_1024(num_bitmaps):
    ring = ChordRing.build(1024, seed=2006)
    config = DHSConfig(num_bitmaps=num_bitmaps, key_bits=24)
    return ring, DistributedHashSketch(ring, config, seed=2006)


def test_traced_count_matches_untraced_within_per_interval_budget():
    """The ``count-sll`` deployment, 200 counts per pass, once traced
    and once not: same estimates and costs, and tracing's extra calls
    and retained trace bytes stay within their per-interval budget."""
    ring, dhs = _chord_1024(num_bitmaps=512)
    dhs.insert_array("traced", np.arange(1_000_000, dtype=np.int64))
    rng = rng_for(2006, "scale-count-traced")
    origins = [ring.random_live_node(rng) for _ in range(200)]
    interval_key_draws = dhs._counter._rng.getstate()

    def one_pass():
        # Rewound so every pass, traced or not, walks the same 200 counts.
        dhs._counter._rng.setstate(interval_key_draws)
        return [dhs.count("traced", origin=origin) for origin in origins]

    def calls_made(run):
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event in ("call", "c_call"):
                calls += 1

        sys.setprofile(profile)
        try:
            results = run()
        finally:
            sys.setprofile(None)
        return calls, results

    def traced_pass(tracer):
        with obs.observed(tracer, MetricsRegistry()):
            return one_pass()

    # Warm: a route is memoised on its second sighting, so after two
    # passes both measured passes replay the same routes.
    one_pass()
    one_pass()
    plain_calls, plain = calls_made(one_pass)
    traced_calls, traced = calls_made(lambda: traced_pass(Tracer()))
    assert [(r.estimates, r.cost) for r in traced] == [(r.estimates, r.cost) for r in plain]
    intervals = sum(r.intervals_scanned for r in plain)
    assert intervals == 1400
    assert (traced_calls - plain_calls) / intervals <= TRACED_CALLS_PER_INTERVAL_BUDGET

    del plain, traced
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracer = Tracer()
        traced_pass(tracer)  # results dropped: what stays is the trace
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tracer.spans) == 5172
    assert kept / intervals <= TRACED_BYTES_PER_INTERVAL_BUDGET


def test_zipf_populate_of_1e5_tenants_balance_and_budget():
    _, dhs = _chord_1024(num_bitmaps=64)
    ops = tenant_op_counts(100_000, 500_000, theta=0.7, seed=2006)
    started = time.perf_counter()
    populate_tenants(dhs, ops, seed=2006)
    elapsed = time.perf_counter() - started
    balance = load_balance(
        np.fromiter(dhs.storage_per_node().values(), dtype=np.float64)
    )
    assert int(np.count_nonzero(ops)) == 90_996
    assert round(balance.max_mean, 3) == 6.447
    assert round(balance.gini, 3) == 0.507
    assert elapsed <= 120.0  # measured ~30 s


def test_long_soak_heals_and_is_byte_identical_across_jobs():
    gate = {**GATE, "n_nodes": 24, "n_items": 500, "trials": 1, "draws": 1}
    base = dict(ticks=200, n_nodes=128, items_per_tick=40, seed=3, gate=gate)
    rows = {r["policy"]: r for r in run("soak", fault_every=25, **base)[0]}
    antientropy = rows["antientropy"]
    assert antientropy["faults"] > 0
    assert antientropy["final_divergence"] == 0, "soak ended with standing divergence"
    assert antientropy["mean_underread_pct"] < rows["readrepair"]["mean_underread_pct"]

    first, _ = run("soak", fault_every=None, jobs=1, **base)
    second, _ = run("soak", fault_every=None, jobs=2, **base)
    assert [r["trace_digest"] for r in first] == [r["trace_digest"] for r in second]
    assert all(r["final_divergence"] == 0 for r in first)
