"""Tracked performance microbenchmarks (see docs/PERFORMANCE.md).

Usage::

    python benchmarks/perf/run.py [--preset smoke|default|full|scale]
                                  [--json BENCH_perf.json]

Measures wall-clock throughput and per-op hop counts of the three DHS
hot paths — overlay lookups, bulk insertion, and distributed counting —
and writes a machine-readable JSON trajectory (``BENCH_perf.json`` at
the repo root by default).  CI runs the ``smoke`` preset on every push
and fails if any microbenchmark regresses more than 3x against the
committed ``baseline_smoke.json`` (see ``check.py``).  The ``scale``
preset holds the internet-scale families (``ringbuild/n1e5``,
``multitenant/zipf_1e5``) gated by the ``scale-smoke`` job against
``baseline_scale.json``.

Every entry carries a canonical ``ops_per_sec`` so the regression check
and the report renderer need no per-benchmark knowledge; insert
benchmarks count one op per *item*, count benchmarks one op per
distributed count.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import platform
import sys
import time
from typing import Any, Dict, List

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
_SRC = _REPO_ROOT / "src"
for path in (str(_SRC), str(_REPO_ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np  # noqa: E402

from repro.core.config import DHSConfig  # noqa: E402
from repro.core.dhs import DistributedHashSketch  # noqa: E402
from repro.core.policy import RetryPolicy  # noqa: E402
from repro.obs import runtime as obs  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.obs.span import Tracer  # noqa: E402
from repro.overlay.chord import ChordRing  # noqa: E402
from repro.overlay.faults import FaultInjector, FaultPlan  # noqa: E402
from repro.sim.seeds import rng_for  # noqa: E402

#: Benchmark sizes per preset.  ``smoke`` must finish well under 60 s on
#: a cold CI runner; ``default`` is the committed BENCH_perf.json run;
#: ``full`` approaches the ROADMAP's scalability targets.
PRESETS: Dict[str, Dict[str, Any]] = {
    "smoke": {
        "lookup": [{"n_nodes": 256, "ops": 2000}],
        "insert": [{"n_nodes": 128, "array_items": 100_000, "scalar_items": 10_000}],
        "count": [{"n_nodes": 64, "m": 64, "items": 20_000, "counts": 5}],
        "count_faulty": [{"n_nodes": 64, "m": 64, "items": 20_000, "counts": 5}],
        "count_traced": [
            {"n_nodes": 1024, "m": 512, "items": 1_000_000, "counts": 3},
        ],
        "insert_traced": [{"n_nodes": 128, "items": 100_000}],
        "parallel": {
            "jobs": [1, 2],
            "sweep": {"ms": (32, 64), "n_nodes": 32, "scale": 2e-4, "trials": 1},
        },
    },
    "default": {
        "lookup": [{"n_nodes": 1024, "ops": 20_000}, {"n_nodes": 4096, "ops": 10_000}],
        "insert": [
            {"n_nodes": 1024, "array_items": 1_000_000, "scalar_items": 200_000},
        ],
        "count": [
            {"n_nodes": 256, "m": 128, "items": 100_000, "counts": 8},
            {"n_nodes": 1024, "m": 512, "items": 200_000, "counts": 4},
        ],
        "count_faulty": [
            {"n_nodes": 256, "m": 128, "items": 100_000, "counts": 8},
        ],
        "count_traced": [
            {"n_nodes": 1024, "m": 512, "items": 1_000_000, "counts": 8},
        ],
        "insert_traced": [{"n_nodes": 1024, "items": 1_000_000}],
        "parallel": {
            "jobs": [1, 2, 4, 8],
            "sweep": {"ms": (64, 128, 256), "n_nodes": 64, "scale": 2e-3, "trials": 2},
        },
    },
    # Internet-scale families gated by the ``scale-smoke`` CI job against
    # ``baseline_scale.json``.  Kept out of ``smoke`` so the per-push job
    # stays fast; ``ringbuild`` exercises the lean SortedIdArray bulk
    # construction path, ``multitenant`` the vectorized Zipf populate.
    "scale": {
        "ringbuild": [
            {"n_nodes": 100_000, "label": "n1e5"},
        ],
        "multitenant": [
            {
                "n_nodes": 1024,
                "n_tenants": 100_000,
                "total_ops": 500_000,
                "m": 64,
                "label": "zipf_1e5",
            },
        ],
    },
    "full": {
        "lookup": [
            {"n_nodes": 1024, "ops": 50_000},
            {"n_nodes": 16384, "ops": 20_000},
        ],
        "insert": [
            {"n_nodes": 1024, "array_items": 10_000_000, "scalar_items": 500_000},
            {"n_nodes": 8192, "array_items": 10_000_000, "scalar_items": 200_000},
        ],
        "count": [
            {"n_nodes": 1024, "m": 512, "items": 1_000_000, "counts": 8},
            {"n_nodes": 4096, "m": 1024, "items": 1_000_000, "counts": 4},
        ],
        "count_faulty": [
            {"n_nodes": 1024, "m": 512, "items": 1_000_000, "counts": 4},
        ],
        "count_traced": [
            {"n_nodes": 1024, "m": 512, "items": 1_000_000, "counts": 4},
        ],
        "insert_traced": [{"n_nodes": 1024, "items": 10_000_000}],
        "parallel": {
            "jobs": [1, 2, 4, 8],
            "sweep": {"ms": (64, 128, 256, 512), "n_nodes": 128, "scale": 1e-2, "trials": 2},
        },
    },
}

SEED = 2006  # ICDE 2006 — fixed so runs are workload-identical.


def bench_lookup(n_nodes: int, ops: int) -> Dict[str, Any]:
    """Random-key, random-origin lookup throughput on an idle ring."""
    ring = ChordRing.build(n_nodes, bits=64, seed=SEED)
    rng = rng_for(SEED, "perf-lookup", n_nodes)
    ids = list(ring.node_ids())
    keys = [rng.randrange(2**64) for _ in range(ops)]
    origins = [ids[rng.randrange(len(ids))] for _ in range(ops)]
    hops = 0
    start = time.perf_counter()
    for key, origin in zip(keys, origins):
        hops += ring.lookup(key, origin=origin).cost.hops
    seconds = time.perf_counter() - start
    return {
        "ops": ops,
        "seconds": round(seconds, 4),
        "ops_per_sec": round(ops / seconds, 1),
        "hops_per_op": round(hops / ops, 3),
    }


def bench_ringbuild(n_nodes: int) -> Dict[str, Any]:
    """Ring-construction throughput for the memory-lean overlay.

    One op per node joined.  Best-of-3 so a scheduler hiccup on a cold
    CI runner does not masquerade as a reintroduced quadratic (or
    per-node-object) construction path.  Alongside the rate, the entry
    records the resident membership footprint and how many ``Node``
    objects construction materialized — the lean representation promises
    8 B/node and zero, so drift here is visible in the trajectory even
    before it is slow enough to trip the throughput gate.
    """
    ring = ChordRing.build(n_nodes, bits=64, seed=SEED)
    best = float("inf")
    gc.collect()
    for _ in range(3):
        start = time.perf_counter()
        ring = ChordRing.build(n_nodes, bits=64, seed=SEED)
        best = min(best, time.perf_counter() - start)
    return {
        "ops": n_nodes,
        "seconds": round(best, 4),
        "ops_per_sec": round(n_nodes / best, 1),
        "membership_bytes_per_node": round(ring.membership_nbytes() / n_nodes, 2),
        "nodes_materialized": len(ring._nodes),
    }


def bench_multitenant(
    n_nodes: int, n_tenants: int, total_ops: int, m: int
) -> Dict[str, Any]:
    """Multi-tenant Zipf populate throughput (one op per observation).

    Draws the Zipf per-tenant operation counts, then times the single
    vectorized ``populate_tenants`` pass that hashes every tenant's
    items and stores them through their Zipf-chosen inserter nodes.  The
    resulting per-node storage balance rides along so the trajectory
    shows skew drift, not just speed.
    """
    from repro.experiments.multitenant import populate_tenants
    from repro.workloads.multitenant import load_balance, tenant_op_counts

    ring = ChordRing.build(n_nodes, bits=64, seed=SEED)
    dhs = DistributedHashSketch(
        ring, DHSConfig(num_bitmaps=m, key_bits=24), seed=SEED
    )
    ops = tenant_op_counts(n_tenants, total_ops, theta=0.7, seed=SEED)
    gc.collect()
    start = time.perf_counter()
    populate_tenants(dhs, ops, seed=SEED)
    seconds = time.perf_counter() - start
    balance = load_balance(
        np.fromiter(dhs.storage_per_node().values(), dtype=np.float64)
    )
    return {
        "ops": total_ops,
        "seconds": round(seconds, 4),
        "ops_per_sec": round(total_ops / seconds, 1),
        "active_tenants": int(np.count_nonzero(ops)),
        "storage_max_mean": round(balance.max_mean, 3),
        "storage_gini": round(balance.gini, 3),
    }


def bench_insert(
    n_nodes: int, items: int, vectorized: bool, m: int = 512
) -> Dict[str, Any]:
    """Bulk-insertion throughput (one metric, one origin node)."""
    ring = ChordRing.build(n_nodes, bits=64, seed=SEED)
    dhs = DistributedHashSketch(
        ring, DHSConfig(num_bitmaps=m, key_bits=24), seed=SEED
    )
    ids = np.arange(items, dtype=np.int64)
    origin = list(ring.node_ids())[0]
    start = time.perf_counter()
    if vectorized:
        cost = dhs.insert_array("perf", ids, origin=origin)
    else:
        cost = dhs.insert_bulk("perf", (int(item) for item in ids), origin=origin)
    seconds = time.perf_counter() - start
    return {
        "ops": items,
        "seconds": round(seconds, 4),
        "ops_per_sec": round(items / seconds, 1),
        "hops_per_op": round(cost.hops / items, 6),
        "total_hops": cost.hops,
    }


def bench_count(
    n_nodes: int, m: int, items: int, counts: int
) -> Dict[str, Any]:
    """Distributed-count latency on a populated ring."""
    ring = ChordRing.build(n_nodes, bits=64, seed=SEED)
    dhs = DistributedHashSketch(
        ring, DHSConfig(num_bitmaps=m, key_bits=24), seed=SEED
    )
    dhs.insert_array("perf", np.arange(items, dtype=np.int64))
    rng = rng_for(SEED, "perf-count", n_nodes, m)
    origins = [ring.random_live_node(rng) for _ in range(counts)]
    hops = 0
    start = time.perf_counter()
    for origin in origins:
        hops += dhs.count("perf", origin=origin).cost.hops
    seconds = time.perf_counter() - start
    return {
        "ops": counts,
        "seconds": round(seconds, 4),
        "ops_per_sec": round(counts / seconds, 2),
        "hops_per_op": round(hops / counts, 1),
        "seconds_per_count": round(seconds / counts, 4),
    }


def bench_count_faulty(
    n_nodes: int, m: int, items: int, counts: int, drop: float = 0.05
) -> Dict[str, Any]:
    """Distributed-count latency with the fault layer live.

    Same workload as :func:`bench_count`, but the ring is wrapped in a
    :class:`FaultInjector` losing ``drop`` of all messages (population
    stays clean via ``drop_from``) and counting runs under a 3-attempt
    retry policy.  Tracking this next to ``count`` keeps the fault
    layer's wrapper overhead and the retry bookkeeping from regressing
    the packed count hot path unnoticed.
    """
    ring = ChordRing.build(n_nodes, bits=64, seed=SEED)
    injector = FaultInjector(
        ring, FaultPlan(drop_probability=drop, drop_from=1), seed=SEED
    )
    dhs = DistributedHashSketch(
        injector,
        DHSConfig(num_bitmaps=m, key_bits=24),
        seed=SEED,
        policy=RetryPolicy(max_attempts=3, backoff_hops=1),
    )
    dhs.insert_array("perf", np.arange(items, dtype=np.int64))
    injector.advance_to(1)
    rng = rng_for(SEED, "perf-count-faulty", n_nodes, m)
    origins = [injector.random_live_node(rng) for _ in range(counts)]
    hops = 0
    degraded = 0
    start = time.perf_counter()
    for origin in origins:
        result = dhs.count("perf", origin=origin, now=1)
        hops += result.cost.hops
        degraded += int(result.degraded)
    seconds = time.perf_counter() - start
    return {
        "ops": counts,
        "seconds": round(seconds, 4),
        "ops_per_sec": round(counts / seconds, 2),
        "hops_per_op": round(hops / counts, 1),
        "seconds_per_count": round(seconds / counts, 4),
        "degraded_counts": degraded,
        "dropped_messages": injector.dropped_messages,
    }


def bench_count_traced(
    n_nodes: int, m: int, items: int, counts: int
) -> Dict[str, Any]:
    """Distributed-count latency with tracing + metering enabled.

    Runs the exact :func:`bench_count` workload twice in-process —
    observability disabled, then enabled (fresh ``Tracer`` +
    ``MetricsRegistry``) — and reports the enabled throughput along with
    ``overhead_vs_disabled_pct``.  Three alternating repetitions per mode
    (best-of) damp scheduler noise.  ``check.py`` hard-fails when the
    overhead exceeds its ``--max-traced-overhead`` budget (40% by
    default); the disabled mode is covered by the ordinary ``count/``
    entry's baseline comparison, pinning the flag-check cost at ~0.
    Both modes run the same probe walk, so the overhead is the
    span/event/metric cost alone.

    The specs pin the *representative* deployment (the ``count/n1024_m512``
    headline workload): per-span overhead is a fixed pure-Python cost, so
    the ratio shrinks as the network (and with it the baseline lookup
    work per interval) grows — tiny rings at low load factors measure the
    instrumentation floor, not a deployment anyone traces.
    """
    ring = ChordRing.build(n_nodes, bits=64, seed=SEED)
    dhs = DistributedHashSketch(
        ring, DHSConfig(num_bitmaps=m, key_bits=24), seed=SEED
    )
    dhs.insert_array("perf", np.arange(items, dtype=np.int64))
    rng = rng_for(SEED, "perf-count-traced", n_nodes, m)
    origins = [ring.random_live_node(rng) for _ in range(counts)]

    def one_pass() -> float:
        start = time.perf_counter()
        for origin in origins:
            dhs.count("perf", origin=origin)
        return time.perf_counter() - start

    plain = traced = float("inf")
    spans = 0
    # The overhead ratio is an in-process A/B comparison, so shield it
    # from suite-order artefacts: collect whatever previous benchmarks
    # left behind and keep the collector out of both timed modes (the
    # per-pass span list is a few hundred entries — GC is irrelevant to
    # the instrumentation cost being measured).
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            plain = min(plain, one_pass())
            tracer = Tracer()
            with obs.observed(tracer, MetricsRegistry()):
                traced = min(traced, one_pass())
            spans = len(tracer.spans)
    finally:
        gc.enable()
    overhead = 100.0 * (traced / plain - 1.0)
    return {
        "ops": counts,
        "seconds": round(traced, 4),
        "ops_per_sec": round(counts / traced, 2),
        "disabled_ops_per_sec": round(counts / plain, 2),
        "overhead_vs_disabled_pct": round(overhead, 2),
        "spans_per_op": round(spans / counts, 1),
    }


def bench_insert_traced(n_nodes: int, items: int, m: int = 512) -> Dict[str, Any]:
    """Vectorized bulk-insert throughput with tracing + metering enabled.

    Same alternating disabled/enabled structure as
    :func:`bench_count_traced`; the span stream here is one
    ``insert.store`` per interval, so the absolute overhead is dominated
    by the metering counters.
    """
    ring = ChordRing.build(n_nodes, bits=64, seed=SEED)
    dhs = DistributedHashSketch(
        ring, DHSConfig(num_bitmaps=m, key_bits=24), seed=SEED
    )
    ids = np.arange(items, dtype=np.int64)
    origin = list(ring.node_ids())[0]

    def one_pass() -> float:
        start = time.perf_counter()
        dhs.insert_array("perf", ids, origin=origin)
        return time.perf_counter() - start

    plain = traced = float("inf")
    spans = 0
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            plain = min(plain, one_pass())
            tracer = Tracer()
            with obs.observed(tracer, MetricsRegistry()):
                traced = min(traced, one_pass())
            spans = len(tracer.spans)
    finally:
        gc.enable()
    overhead = 100.0 * (traced / plain - 1.0)
    return {
        "ops": items,
        "seconds": round(traced, 4),
        "ops_per_sec": round(items / traced, 1),
        "disabled_ops_per_sec": round(items / plain, 1),
        "overhead_vs_disabled_pct": round(overhead, 2),
        "spans_per_op": round(spans / items, 6),
    }


def bench_parallel(jobs_list: List[int], sweep: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Accuracy-sweep wall-clock at several ``DHS_JOBS`` widths.

    Every width must reproduce the serial (jobs=1) rows exactly — the
    harness's determinism contract — so each entry carries an
    ``identical_to_serial`` flag that ``check.py`` turns into a hard
    failure.  Speedups only show up on multi-core runners; on one core
    the flag still verifies the contract.
    """
    from repro.experiments.accuracy import run_accuracy_sweep

    entries: Dict[str, Dict[str, Any]] = {}
    serial_rows = None
    # Size goes in the name (like count/n256_m128) so entries from
    # different presets never collide in the regression check.
    size = f"n{sweep['n_nodes']}_m{max(sweep['ms'])}"
    for jobs in jobs_list:
        start = time.perf_counter()
        rows = run_accuracy_sweep(seed=SEED, jobs=jobs, **sweep)
        seconds = time.perf_counter() - start
        if serial_rows is None:
            serial_rows = rows
        cells = len(sweep["ms"]) * 2  # (m, hash_seed) grid with 2 default seeds
        entries[f"parallel_scaling/{size}/jobs{jobs}"] = {
            "ops": cells,
            "seconds": round(seconds, 4),
            "ops_per_sec": round(cells / seconds, 3),
            "jobs": jobs,
            "identical_to_serial": rows == serial_rows,
        }
    return entries


def run_suite(preset: str, only: set | None = None) -> Dict[str, Any]:
    sizes = PRESETS[preset]
    benchmarks: Dict[str, Dict[str, Any]] = {}

    def want(family: str) -> bool:
        return only is None or family in only

    for spec in sizes.get("ringbuild", []) if want("ringbuild") else []:
        name = f"ringbuild/{spec['label']}"
        print(f"[perf] {name} ...", flush=True)
        benchmarks[name] = bench_ringbuild(spec["n_nodes"])

    for spec in sizes.get("multitenant", []) if want("multitenant") else []:
        name = f"multitenant/{spec['label']}"
        print(f"[perf] {name} ...", flush=True)
        benchmarks[name] = bench_multitenant(
            spec["n_nodes"], spec["n_tenants"], spec["total_ops"], spec["m"]
        )

    for spec in sizes.get("lookup", []) if want("lookup") else []:
        name = f"lookup/n{spec['n_nodes']}"
        print(f"[perf] {name} ...", flush=True)
        benchmarks[name] = bench_lookup(spec["n_nodes"], spec["ops"])

    for spec in sizes.get("insert", []) if want("insert") else []:
        n_nodes = spec["n_nodes"]
        array_name = f"bulk_insert_array/n{n_nodes}_items{spec['array_items']}"
        print(f"[perf] {array_name} ...", flush=True)
        benchmarks[array_name] = bench_insert(
            n_nodes, spec["array_items"], vectorized=True
        )
        scalar_name = f"bulk_insert_scalar/n{n_nodes}_items{spec['scalar_items']}"
        print(f"[perf] {scalar_name} ...", flush=True)
        benchmarks[scalar_name] = bench_insert(
            n_nodes, spec["scalar_items"], vectorized=False
        )
        benchmarks[array_name]["speedup_vs_scalar"] = round(
            benchmarks[array_name]["ops_per_sec"]
            / benchmarks[scalar_name]["ops_per_sec"],
            2,
        )

    for spec in sizes.get("count", []) if want("count") else []:
        name = f"count/n{spec['n_nodes']}_m{spec['m']}"
        print(f"[perf] {name} ...", flush=True)
        benchmarks[name] = bench_count(
            spec["n_nodes"], spec["m"], spec["items"], spec["counts"]
        )

    for spec in sizes.get("count_faulty", []) if want("count_faulty") else []:
        name = f"count_faulty/n{spec['n_nodes']}_m{spec['m']}"
        print(f"[perf] {name} ...", flush=True)
        benchmarks[name] = bench_count_faulty(
            spec["n_nodes"], spec["m"], spec["items"], spec["counts"]
        )

    for spec in sizes.get("count_traced", []) if want("count_traced") else []:
        name = f"count_traced/n{spec['n_nodes']}_m{spec['m']}"
        print(f"[perf] {name} ...", flush=True)
        benchmarks[name] = bench_count_traced(
            spec["n_nodes"], spec["m"], spec["items"], spec["counts"]
        )

    for spec in sizes.get("insert_traced", []) if want("insert_traced") else []:
        name = f"insert_traced/n{spec['n_nodes']}_items{spec['items']}"
        print(f"[perf] {name} ...", flush=True)
        benchmarks[name] = bench_insert_traced(spec["n_nodes"], spec["items"])

    parallel = sizes.get("parallel")
    if parallel is not None and want("parallel"):
        print(f"[perf] parallel_scaling (jobs {parallel['jobs']}) ...", flush=True)
        benchmarks.update(bench_parallel(parallel["jobs"], dict(parallel["sweep"])))

    return {
        "schema": 1,
        "preset": preset,
        "seed": SEED,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "benchmarks": benchmarks,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", choices=sorted(PRESETS), default="default")
    parser.add_argument(
        "--json",
        type=pathlib.Path,
        default=_REPO_ROOT / "BENCH_perf.json",
        help="output path (default: BENCH_perf.json at the repo root)",
    )
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated benchmark families to run "
        "(ringbuild,multitenant,lookup,insert,count,count_faulty,"
        "count_traced,insert_traced,parallel)",
    )
    args = parser.parse_args(argv)
    only = {part.strip() for part in args.only.split(",") if part.strip()} if args.only else None
    report = run_suite(args.preset, only=only)
    args.json.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[perf] wrote {args.json}")
    width = max(len(name) for name in report["benchmarks"])
    for name, entry in report["benchmarks"].items():
        line = f"  {name:<{width}}  {entry['ops_per_sec']:>14,.1f} ops/s"
        if "hops_per_op" in entry:
            line += f"  {entry['hops_per_op']:>10.3f} hops/op"
        if "identical_to_serial" in entry:
            line += "  bit-identical" if entry["identical_to_serial"] else "  DIVERGED"
        if "overhead_vs_disabled_pct" in entry:
            line += f"  {entry['overhead_vs_disabled_pct']:+.1f}% vs disabled"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
