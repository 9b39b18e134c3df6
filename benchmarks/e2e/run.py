"""End-to-end benchmark of the DHS reproduction: one command, every metric.

Two ways to run it, both from the repository root::

    # one workload in this process (what BENCHMARK.json's command runs);
    # the last stdout line is the result object
    python3 benchmarks/e2e/run.py --workload count-sll --seed 7 --seconds 8 --trace 0

    # every workload, one after another, each in its own child process
    # (clean ru_maxrss, no shared caches, never two at once)
    python3 benchmarks/e2e/run.py --seed 2006 --out results.json
    python3 benchmarks/e2e/run.py --seed 2006 --trace 1 --out results.json

With ``--trace 1`` the all-workloads form runs each workload untraced and
then traced, checks that both produced the same simulation, and writes
``results.json`` and ``results_traced.json``.

A run is a single-threaded closed loop with one client: the next op is
issued when the previous one returned.  See README.md for the metrics,
the workloads and why each was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The traced run keeps spans for every other block of this many ops, so
#: traced and untraced op times are compared inside one process.
TRACE_BLOCK = 8
#: A calibration-kernel sample is taken after this much op time, and a
#: burst of this many around each set-up (see timing.calibration_kernel).
KERNEL_EVERY_NS = 500_000
KERNEL_BURST = 64


# ----------------------------------------------------------------------
# One workload, in this process.
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """Set up, measure and verify one workload; returns its full record."""
    import numpy as np

    from layers import count_metrics, ladder_metrics, span_metrics
    from timing import KERNEL_QUIET_NS, Clock, calibrate, gc_shield, kernel_ns, percentile
    from workloads import WORKLOADS, OpResult, Workload

    def set_up(keep: bool) -> Tuple[Workload, Clock, Tuple[float, float]]:
        """A fresh deployment, its clock, and its (calibrated, raw) set-up time, s."""
        workload = WORKLOADS[name](seed)
        clock = Clock()
        clock.keep = keep
        with gc_shield():
            before = kernel_ns(KERNEL_BURST)
            start = perf_counter_ns()
            workload.setup(clock)
            raw = (perf_counter_ns() - start) / 1e9
            factor = (before + kernel_ns(KERNEL_BURST)) / 2 / KERNEL_QUIET_NS
        return workload, clock, (raw / factor, raw)

    # The first deployment is the one measured; the other set-ups come
    # last (further down), so that peak_rss_mb is the high-water mark of
    # one deployment and not of what three leave behind in the heap.
    workload, clock, first_setup = set_up(traced)
    setup_spans = len(clock.spans)
    setup_ns, _ = clock.take_totals()

    checked = workload.checked_ops
    latencies: List[int] = []
    kernel_marks: List[int] = []
    kernel_times: List[float] = []
    since_kernel = 0
    kept: List[bool] = []
    hops: List[int] = []
    nbytes: List[float] = []
    errors: List[float] = []
    digest = hashlib.blake2b(digest_size=16)
    failed = 0
    problems: List[str] = []
    with gc_shield():
        deadline = perf_counter_ns() + int(seconds * 1e9)
        index = 0
        # At least checked + 1 ops, so between_ops(checked) always runs
        # (insert-churn takes its verification counts there).
        while index <= checked or perf_counter_ns() < deadline:
            clock.keep = traced and (index // TRACE_BLOCK) % 2 == 0
            workload.between_ops(clock, index)
            clock.begin_op(index)
            try:
                result = workload.op(clock, index)
            except Exception:  # an op that raises is a failed op, not a crashed run
                if not failed:
                    traceback.print_exc()
                result = OpResult(hops=0, bytes=0.0, failed=True)
            latencies.append(clock.end_op())
            kept.append(clock.keep)
            since_kernel += latencies[-1]
            if since_kernel >= KERNEL_EVERY_NS:
                since_kernel = 0
                kernel_marks.append(len(latencies))
                kernel_times.append(kernel_ns())
            failed += result.failed
            if not all(math.isfinite(e) and e > 0 for e in result.estimates):
                problems.append(f"op {index}: estimate not finite and positive")
            if index < checked:
                hops.append(result.hops)
                nbytes.append(result.bytes)
                errors.extend(result.errors)
                digest.update(
                    repr((result.hops, result.bytes, tuple(result.estimates))).encode()
                )
            index += 1
    clock.keep = False
    attempted = len(latencies)
    busy_s = sum(latencies) / 1e9
    errors.extend(workload.extra_errors())

    micros = [ns / 1e3 for ns in calibrate(latencies, kernel_marks, kernel_times)]
    host_factor = statistics.median(kernel_times) / KERNEL_QUIET_NS
    end_to_end = {
        "ops_s": 1e6 / statistics.fmean(micros),
        "op_p50_us": percentile(micros, 50)[0],
        "op_p95_us": percentile(micros, 95)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "hops_per_op": statistics.fmean(hops),
        "bytes_per_op": statistics.fmean(nbytes),
        "rel_error_pct": 100 * statistics.fmean(errors),
    }

    per_layer: Dict[str, float] = {}
    if traced:
        per_layer.update(span_metrics(workload, clock, setup_ns))
        per_layer.update(count_metrics(workload))
        traced_us = [us for us, keep in zip(micros, kept) if keep]
        untraced_us = [us for us, keep in zip(micros, kept) if not keep]
        per_layer["op_p99_us"] = percentile(micros, 99)[0]
        per_layer["trace_overhead_pct"] = 100 * (
            statistics.median(traced_us) / statistics.median(untraced_us) - 1
        )

    if workload.clean:
        counts = workload.counts
        if counts.retries or counts.timeouts or counts.drops or workload.inserts.retries:
            problems.append("clean workload saw retries, timeouts or drops")
        if failed > 0.01 * attempted:
            problems.append(f"failed_op_share {failed / attempted:.4f} > 0.01")
    # Drains (soak) and final checks come after the tallies were read:
    # the extra ticks they run are not ops.
    problems.extend(workload.finish())
    if traced:
        divergences = workload.maintenance.divergences
        per_layer["core.maintenance.divergence_final"] = float(
            divergences[-1] if divergences else 0
        )
        per_layer.update(ladder_metrics(workload, clock, host_factor))
        OUT_DIR.mkdir(exist_ok=True)
        clock.write_jsonl(str(OUT_DIR / f"spans-{name}.jsonl"))

    params = workload.params()
    del workload  # drop the deployment before building the next
    setups = [first_setup] + [set_up(False)[2] for _ in range(SETUP_REPEATS - 1)]
    end_to_end["setup_s"] = statistics.median(calibrated for calibrated, _ in setups)

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "failed_op_share": failed / attempted,
        "checked_ops": checked,
        "sim_digest": digest.hexdigest(),
        "busy_s": busy_s,
        "uncalibrated": {
            "setup_s": statistics.median(raw for _, raw in setups),
            "ops_s": attempted / busy_s,
            "op_p50_us": percentile(latencies, 50)[0] / 1e3,
            "op_p95_us": percentile(latencies, 95)[0] / 1e3,
            "host_speed_factor": host_factor,
        },
        "setup_samples_s": [calibrated for calibrated, _ in setups],
        "spans_kept": len(clock.spans) - setup_spans,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "params": params,
        "numpy": np.__version__,
    }


def with_units(values: Dict[str, float], declared: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Attach BENCHMARK.json's units; the names must match it exactly."""
    names = [metric["name"] for metric in declared]
    if sorted(names) != sorted(values):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise SystemExit(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }


def run_one(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record["end_to_end"] = with_units(record["end_to_end"], spec["end_to_end"])
    if args.trace:
        record["per_layer"] = with_units(record["per_layer"], spec["per_layer"])
    metrics = record["per_layer" if args.trace else "end_to_end"]
    print(f"# {record['workload']} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:16.6f} {metric['unit']}")
    print(
        f"attempted={record['attempted']} failed={record['failed']} "
        f"sim_digest={record['sim_digest']} correct={record['correct']}"
    )
    for problem in record["problems"]:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if record["correct"] else 1


# ----------------------------------------------------------------------
# Every workload, each in its own child process.
# ----------------------------------------------------------------------
def git_commit() -> Optional[str]:
    """HEAD of this checkout (``-dirty`` when modified), or None outside git."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
        if head.returncode:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return None
    return head.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def run_child(name: str, args: argparse.Namespace, trace: int) -> Dict[str, Any]:
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{name}-{trace}.json"
    out.unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(out),
    ]
    # One client, one thread: no parallel DHS helpers, no BLAS threads.
    env = {**os.environ, "DHS_JOBS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run(command, cwd=ROOT, env=env)
    if not out.exists():
        raise SystemExit(f"{name}: child exited {done.returncode} without a result")
    return json.loads(out.read_text())


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    from compare import EXACT

    names = [workload["name"] for workload in spec["workloads"]]
    manifest = {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "setup_repeats": SETUP_REPEATS,
        "command": spec["command"],
    }
    untraced: Dict[str, Any] = {}
    traced: Dict[str, Any] = {}
    problems: List[str] = []
    for name in names:
        untraced[name] = record = run_child(name, args, 0)
        problems += [f"{name}: {problem}" for problem in record["problems"]]
        if not args.trace:
            continue
        traced[name] = twin = run_child(name, args, 1)
        problems += [f"{name} (traced): {problem}" for problem in twin["problems"]]
        if twin["sim_digest"] != record["sim_digest"]:
            problems.append(f"{name}: traced sim_digest differs from untraced")
        for metric in EXACT:
            if twin["end_to_end"][metric] != record["end_to_end"][metric]:
                problems.append(f"{name}: traced {metric} differs from untraced")
    manifest["numpy"] = untraced[names[0]]["numpy"]
    for records, suffix in ((untraced, ""), (traced, "_traced")):
        if records and args.out:
            path = Path(args.out)
            path = path.with_name(path.stem + suffix + path.suffix)
            summary = {
                "manifest": manifest,
                "workloads": records,
                "problems": problems,
                "claim": None,
            }
            path.write_text(json.dumps(summary, indent=1) + "\n")
            print(f"wrote {path}")
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print(json.dumps({"workloads": names, "correct": not problems, "claim": None}))
    return 1 if problems else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process (default: all)")
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=float, help="measured time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result JSON here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is None:
        return run_all(args, spec)
    if args.workload not in [workload["name"] for workload in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
