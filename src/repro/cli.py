"""Command-line interface: regenerate any paper table/figure directly.

Usage::

    python -m repro list
    python -m repro table2 [--seed 1] [--scale 0.02] [--nodes 128]
    python -m repro accuracy --output benchmarks/results
    python -m repro all                   # everything, in name order

Every command is an entry of :mod:`repro.experiments.registry`.  At its
default arguments it prints exactly the text files its benchmark
archives under ``benchmarks/results/``, and ``--output DIR`` writes one
``<stem>.txt`` per file.  A flag the entry does not take is an error.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.common import Experiment, Params
from repro.experiments.registry import EXPERIMENTS

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the DHS paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["list", "all"],
        help="experiment to run ('list' prints the catalogue)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="master seed (default: the seed of the committed result files)",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="workload scale override (1.0 = paper size; default: "
        "$DHS_SCALE or the experiment's own)",
    )
    parser.add_argument(
        "--nodes", type=int, default=None, help="overlay size override"
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for trial grids (default: $DHS_JOBS or 1); "
        "results are bit-identical at any width",
    )
    parser.add_argument(
        "--output", type=str, default=None,
        help="directory to also write each result file into (<stem>.txt)",
    )
    parser.add_argument(
        "--trace-jsonl", type=str, default=None,
        help="with 'trace': also dump the span trace as JSONL to this path",
    )
    return parser


def _overrides(
    parser: argparse.ArgumentParser, entry: Experiment, args: argparse.Namespace
) -> Dict[str, Any]:
    """The params the flags set; a flag the entry does not take exits 2."""
    by_flag = {
        flag: {param: value}
        for flag, param, value in (
            ("--seed", "seed", args.seed),
            ("--scale", "scale", args.scale),
            ("--trace-jsonl", "trace_jsonl", args.trace_jsonl),
        )
        if value is not None
    }
    if args.nodes is not None:
        by_flag["--nodes"] = entry.node_params(args.nodes)
    overrides: Dict[str, Any] = {}
    for flag, params in by_flag.items():
        if not set(params) <= set(entry.params):
            parser.error(f"{entry.name} does not take {flag}")
        overrides.update(params)
    return overrides


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.experiment == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name, entry in EXPERIMENTS.items():
            print(f"{name.ljust(width)}  {entry.description}")
        return 0
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    # Every flag is checked before anything runs.
    runs: List[Tuple[Experiment, Params]] = [
        (entry, entry.resolve(_overrides(parser, entry, args)))
        for entry in (EXPERIMENTS[name] for name in names)
    ]
    output_dir = None
    if args.output is not None:
        output_dir = pathlib.Path(args.output)
        output_dir.mkdir(parents=True, exist_ok=True)
    first = True
    for entry, params in runs:
        texts = entry.render(entry.execute(params, args.jobs), params)
        for stem, text in texts.items():
            if not first:
                print()
            first = False
            print(text, flush=True)
            if output_dir is not None and stem in entry.results:
                (output_dir / f"{stem}.txt").write_text(text + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
