"""Compare a perf run against a committed baseline (CI regression gate).

Usage::

    python benchmarks/perf/check.py --baseline benchmarks/perf/baseline_smoke.json \
                                    --current BENCH_perf.json [--max-regression 3.0]

For every benchmark present in *both* files, the current ``ops_per_sec``
must be at least ``baseline / max_regression``.  The generous default
factor (3x) absorbs hardware differences between the machine that
committed the baseline and the CI runner while still catching real
hot-path regressions (which are typically 5-30x when a fast path stops
being taken).  Exits non-zero on any regression or on an empty
intersection of benchmark names.

Two baselines are committed: ``baseline_smoke.json`` (the per-push
``smoke`` preset) and ``baseline_scale.json`` (the ``scale`` preset's
internet-scale families — ``ringbuild/n1e5`` and
``multitenant/zipf_1e5`` — gated by the ``scale-smoke`` job).  The same
shared-name ``ops_per_sec`` rule applies to both.

``parallel_scaling/*`` entries additionally carry an
``identical_to_serial`` flag (the harness's determinism contract: any
worker count reproduces the serial rows bit for bit).  A false flag in
the *current* run fails the check outright — that is a correctness bug,
not a performance regression, so no tolerance factor applies.

``count_traced/*`` and ``insert_traced/*`` entries carry
``overhead_vs_disabled_pct`` — the in-process cost of running the same
workload with spans + metrics enabled.  Any entry above
``--max-traced-overhead`` (default 40%) fails the check; this number is
machine-independent (both modes run in the same process), so no
regression factor applies to it either.  The budget covers the
span/event/metric cost only — traced and untraced counts run the same
probe walk.  The committed headline figure is 29.43% and the micro
times a handful of counts: thirteen fresh runs across two adjacent
commits read 22.0-37.1% (medians 26-30%), so the 40% default is left
where it is — a tighter one would flap on run-to-run spread.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=pathlib.Path, required=True)
    parser.add_argument("--current", type=pathlib.Path, required=True)
    parser.add_argument("--max-regression", type=float, default=3.0)
    parser.add_argument("--max-traced-overhead", type=float, default=40.0)
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())["benchmarks"]
    current = json.loads(args.current.read_text())["benchmarks"]
    shared = sorted(set(baseline) & set(current))
    if not shared:
        print("perf-check: no shared benchmarks between baseline and current")
        return 1

    diverged = [
        name
        for name, entry in sorted(current.items())
        if entry.get("identical_to_serial") is False
    ]
    if diverged:
        print(
            "perf-check: parallel runs diverged from serial results: "
            + ", ".join(diverged)
        )
        return 1

    over_budget = [
        (name, entry["overhead_vs_disabled_pct"])
        for name, entry in sorted(current.items())
        if entry.get("overhead_vs_disabled_pct") is not None
        and entry["overhead_vs_disabled_pct"] > args.max_traced_overhead
    ]
    if over_budget:
        for name, pct in over_budget:
            print(
                f"perf-check: {name} traced overhead {pct:.1f}% exceeds the "
                f"{args.max_traced_overhead:.0f}% budget"
            )
        return 1

    failures = []
    width = max(len(name) for name in shared)
    for name in shared:
        base_ops = float(baseline[name]["ops_per_sec"])
        cur_ops = float(current[name]["ops_per_sec"])
        ratio = base_ops / cur_ops if cur_ops > 0 else float("inf")
        verdict = "ok"
        if ratio > args.max_regression:
            verdict = f"REGRESSION ({ratio:.1f}x slower)"
            failures.append(name)
        print(
            f"  {name:<{width}}  baseline {base_ops:>14,.1f}  "
            f"current {cur_ops:>14,.1f}  {verdict}"
        )
    if failures:
        print(
            f"perf-check: {len(failures)} benchmark(s) regressed more than "
            f"{args.max_regression}x: {', '.join(failures)}"
        )
        return 1
    print(f"perf-check: {len(shared)} benchmark(s) within {args.max_regression}x")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
