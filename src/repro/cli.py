"""Command-line interface: regenerate any paper table/figure directly.

Usage::

    python -m repro list
    python -m repro table2 [--seed 1] [--scale 0.02] [--nodes 128]
    python -m repro accuracy --seed 2
    python -m repro all --seed 1          # everything, in order

Each command prints the same text table its benchmark archives under
``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from repro.experiments.accuracy import format_accuracy, run_accuracy_sweep
from repro.experiments.ablations import (
    format_ablation,
    run_bitshift_ablation,
    run_lim_ablation,
    run_overlay_comparison,
    run_replication_ablation,
)
from repro.experiments.baselines import format_baselines, run_baseline_comparison
from repro.experiments.churn import format_churn, run_churn_experiment
from repro.experiments.histogram_accuracy import (
    format_histogram_accuracy,
    run_histogram_accuracy,
)
from repro.experiments.histogram_types import (
    format_histogram_types,
    run_histogram_types,
)
from repro.experiments.insertion import run_insertion_experiment
from repro.experiments.multidim import format_multidim, run_multidim
from repro.experiments.multitenant import format_multitenant, run_multitenant
from repro.experiments.query_opt import run_query_opt
from repro.experiments.faultmatrix import format_faultmatrix, run_faultmatrix
from repro.experiments.robustness import format_robustness, run_failure_robustness
from repro.experiments.scalability import (
    format_scalability,
    run_scalability,
    sweep_node_counts,
)
from repro.experiments.soak import format_soak, run_soak
from repro.experiments.table2 import format_table2, run_table2
from repro.experiments.table3 import format_table3, run_table3
from repro.experiments.tracing import TraceScenario, format_trace, run_traced_count

__all__ = ["main", "EXPERIMENTS"]


def _run_table2(args: argparse.Namespace) -> str:
    kwargs = {"seed": args.seed}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.nodes is not None:
        kwargs["n_nodes"] = args.nodes
    kwargs["jobs"] = args.jobs
    rows = run_table2(**kwargs)
    return format_table2(rows, args.scale if args.scale is not None else 2e-2)


def _run_table3(args: argparse.Namespace) -> str:
    kwargs = {"seed": args.seed}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.nodes is not None:
        kwargs["n_nodes"] = args.nodes
    kwargs["jobs"] = args.jobs
    rows = run_table3(**kwargs)
    return format_table3(rows, args.scale if args.scale is not None else 1e-2)


def _run_insertion(args: argparse.Namespace) -> str:
    kwargs = {"seed": args.seed}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.nodes is not None:
        kwargs["n_nodes"] = args.nodes
    return run_insertion_experiment(**kwargs).format()


def _run_scalability(args: argparse.Namespace) -> str:
    kwargs = {"seed": args.seed}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.nodes is not None:
        # --nodes caps the geometric N=10^3 -> N sweep (e.g. 1000000
        # runs the full 1e3/1e4/1e5/1e6 ladder locally).
        kwargs["node_counts"] = sweep_node_counts(args.nodes)
    kwargs["jobs"] = args.jobs
    return format_scalability(run_scalability(**kwargs))


def _run_multitenant(args: argparse.Namespace) -> str:
    kwargs = {"seed": args.seed}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.nodes is not None:
        kwargs["node_counts"] = (args.nodes,)
    kwargs["jobs"] = args.jobs
    return format_multitenant(run_multitenant(**kwargs))


def _run_accuracy(args: argparse.Namespace) -> str:
    kwargs = {"seed": args.seed}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.nodes is not None:
        kwargs["n_nodes"] = args.nodes
    kwargs["jobs"] = args.jobs
    return format_accuracy(run_accuracy_sweep(**kwargs))


def _run_histogram_accuracy(args: argparse.Namespace) -> str:
    return format_histogram_accuracy(
        run_histogram_accuracy(seed=args.seed, jobs=args.jobs)
    )


def _run_histogram_types(args: argparse.Namespace) -> str:
    return format_histogram_types(run_histogram_types(seed=args.seed))


def _run_query_opt(args: argparse.Namespace) -> str:
    kwargs = {"seed": args.seed}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.nodes is not None:
        kwargs["n_nodes"] = args.nodes
    return run_query_opt(**kwargs).format()


def _run_baselines(args: argparse.Namespace) -> str:
    kwargs = {"seed": args.seed}
    if args.nodes is not None:
        kwargs["n_nodes"] = args.nodes
    kwargs["jobs"] = args.jobs
    return format_baselines(run_baseline_comparison(**kwargs))


def _run_multidim(args: argparse.Namespace) -> str:
    return format_multidim(run_multidim(seed=args.seed))


def _run_churn(args: argparse.Namespace) -> str:
    return format_churn(run_churn_experiment(seed=args.seed, jobs=args.jobs))


def _run_robustness(args: argparse.Namespace) -> str:
    return format_robustness(
        run_failure_robustness(seed=args.seed, jobs=args.jobs)
    )


def _run_faultmatrix(args: argparse.Namespace) -> str:
    kwargs = {"seed": args.seed, "jobs": args.jobs}
    if args.nodes is not None:
        kwargs["n_nodes"] = args.nodes
    return format_faultmatrix(run_faultmatrix(**kwargs))


def _run_soak(args: argparse.Namespace) -> str:
    kwargs = {"seed": args.seed, "jobs": args.jobs}
    if args.nodes is not None:
        kwargs["n_nodes"] = args.nodes
    return format_soak(run_soak(**kwargs))


def _run_trace(args: argparse.Namespace) -> str:
    scenario = TraceScenario(seed=args.seed)
    if args.nodes is not None:
        scenario = TraceScenario(seed=args.seed, n_nodes=args.nodes)
    run = run_traced_count(scenario)
    if args.trace_jsonl is not None:
        import pathlib

        path = pathlib.Path(args.trace_jsonl)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(run.jsonl())
    return format_trace(run)


def _run_ablations(args: argparse.Namespace) -> str:
    parts = [
        format_ablation("Retry budget ablation (section 4.1)", "nodes visited",
                        run_lim_ablation(seed=args.seed, jobs=args.jobs)),
        format_ablation("Replication under crashes (section 3.5)", "hops/insert",
                        run_replication_ablation(seed=args.seed, jobs=args.jobs)),
        format_ablation("Bit-shift mapping ablation (section 3.5)", "insert kB",
                        run_bitshift_ablation(seed=args.seed, jobs=args.jobs)),
        format_ablation("DHS over Chord vs Kademlia", "nodes visited",
                        run_overlay_comparison(seed=args.seed, jobs=args.jobs)),
    ]
    return "\n\n".join(parts)


#: Registered experiments: name -> (runner, description).
EXPERIMENTS: Dict[str, tuple[Callable[[argparse.Namespace], str], str]] = {
    "insertion": (_run_insertion, "§5.2 insertion & maintenance costs"),
    "table2": (_run_table2, "Table 2: counting costs and accuracy"),
    "table3": (_run_table3, "Table 3: histogram building costs"),
    "scalability": (_run_scalability, "§5.2 scalability (hops vs N)"),
    "accuracy": (_run_accuracy, "§5.2 accuracy vs m (collapse at large m)"),
    "histogram-accuracy": (_run_histogram_accuracy, "§5.2 per-cell histogram error"),
    "histogram-types": (_run_histogram_types, "footnote 5: v-optimal/maxdiff/compressed"),
    "query-opt": (_run_query_opt, "§5.2 join-ordering savings"),
    "baselines": (_run_baselines, "§1 related-work families comparison"),
    "multidim": (_run_multidim, "§4.2 multi-dimension counting"),
    "multitenant": (_run_multitenant, "multi-tenant Zipf workload: storage balance at scale"),
    "churn": (_run_churn, "§3.3 soft-state maintenance under churn"),
    "robustness": (_run_robustness, "§3.5 undetected failures vs replication"),
    "faultmatrix": (_run_faultmatrix, "fault kind x intensity x policy x R matrix"),
    "soak": (_run_soak, "continuous-churn soak: divergence & repair bandwidth"),
    "ablations": (_run_ablations, "lim / replication / bit-shift / overlay ablations"),
    "trace": (_run_trace, "traced count: span tree, metrics, Fig. 7 load table"),
}


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
    parser.add_argument("--seed", type=int, default=1, help="master seed (default 1)")
    parser.add_argument(
        "--scale", type=float, default=None,
        help="workload scale override (1.0 = paper size)",
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
        help="directory to also write each report into (<name>.txt)",
    )
    parser.add_argument(
        "--trace-jsonl", type=str, default=None,
        help="with 'trace': also dump the span trace as JSONL to this path",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.experiment == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name in sorted(EXPERIMENTS):
            print(f"{name.ljust(width)}  {EXPERIMENTS[name][1]}")
        return 0
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    output_dir = None
    if args.output is not None:
        import pathlib

        output_dir = pathlib.Path(args.output)
        output_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        runner, _ = EXPERIMENTS[name]
        report = runner(args)
        print(report)
        print()
        if output_dir is not None:
            (output_dir / f"{name}.txt").write_text(report + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
