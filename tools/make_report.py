"""Aggregate archived benchmark tables into one REPORT.md.

Usage:  python tools/make_report.py [results_dir] [output_path]

Collects every ``benchmarks/results/*.txt`` produced by a
``pytest benchmarks/ --benchmark-only`` run into a single markdown file
with a small table of contents — handy for attaching a full reproduction
run to an issue or a paper-review response.  One traced run of the
golden scenario, the coverage table (from the repo-root
``COVERAGE.json``, when present) and a dhslint summary (rule counts,
suppressions) are appended so how the numbers were obtained and the
static-analysis trends are visible alongside them.
"""

from __future__ import annotations

import json
import pathlib
import sys

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(_REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT))

#: Presentation order (anything not listed is appended alphabetically).
PREFERRED_ORDER = [
    "insertion_costs",
    "table2_counting",
    "scalability",
    "accuracy_vs_m",
    "table3_histograms",
    "table3_bucket_independence",
    "histogram_accuracy",
    "histogram_types",
    "query_opt",
    "baselines",
    "multidim",
    "churn_policies",
    "failure_robustness",
    "fault_matrix",
    "ablation_retries",
    "ablation_replication",
    "ablation_bitshift",
    "overlay_agnosticism",
]


def coverage_summary(coverage_path: pathlib.Path) -> list[str]:
    """Markdown lines rendering the ``COVERAGE.json`` per-package table.

    The file is produced by ``tools/cov.py`` (stdlib tracer, no
    third-party deps); CI enforces the same floor with ``pytest-cov``.
    Returns an empty list when the file is absent.
    """
    if not coverage_path.is_file():
        return []
    report = json.loads(coverage_path.read_text())
    total = report.get("total", {})
    lines = [
        "## test_coverage",
        "",
        f"`PYTHONPATH=src python tools/cov.py --json COVERAGE.json` over "
        f"`{report.get('source', 'src/repro')}` — "
        f"{total.get('covered', 0)}/{total.get('statements', 0)} statements "
        f"({total.get('percent', 0.0):.1f}%). CI gates the tier-1 run with "
        "`--cov=repro --cov-fail-under=94`.",
        "",
        "| package | statements | missed | coverage |",
        "|---|---:|---:|---:|",
    ]
    for name, bucket in report.get("packages", {}).items():
        missed = bucket["statements"] - bucket["covered"]
        lines.append(
            f"| {name} | {bucket['statements']} | {missed} "
            f"| {bucket['percent']:.1f}% |"
        )
    missed = total.get("statements", 0) - total.get("covered", 0)
    lines.append(
        f"| **total** | {total.get('statements', 0)} | {missed} "
        f"| {total.get('percent', 0.0):.1f}% |"
    )
    lines.append("")
    return lines


def observability_summary() -> list[str]:
    """Markdown lines from one traced run of the golden scenario.

    Embeds the metric snapshot and the paper-style (Fig. 7) per-interval
    load table so the report shows *how* the measured numbers were
    obtained, not just the numbers.  Skipped (empty list) when the
    package is not importable from this checkout.
    """
    try:
        sys.path.insert(0, str(_REPO_ROOT / "src"))
        from repro.experiments.tracing import format_trace, run_traced_count
    except ImportError:
        return []
    run = run_traced_count()
    text = format_trace(run, max_spans=24)
    return [
        "## observability",
        "",
        "`python -m repro trace` — fixed-seed traced count "
        f"({run.scenario.n_nodes} nodes, {run.scenario.trials} trials, "
        f"{len(run.spans)} spans; fixture: `tests/obs/golden_trace.jsonl`). "
        "See docs/OBSERVABILITY.md.",
        "",
        "```",
        text.rstrip(),
        "```",
        "",
    ]


def dhslint_summary(source_dir: pathlib.Path) -> list[str]:
    """Markdown lines summarizing a dhslint run over ``source_dir``."""
    from tools.analyze import Config, analyze_paths

    report = analyze_paths([source_dir], Config())
    try:
        shown = source_dir.resolve().relative_to(_REPO_ROOT)
    except ValueError:
        shown = source_dir
    lines = [
        "## static_analysis",
        "",
        f"`python -m tools.analyze {shown}` — "
        f"{len(report.violations)} violation(s), {report.suppressed} "
        f"suppression(s), {report.files} file(s) checked in "
        f"{report.elapsed:.2f}s.",
        "",
    ]
    if report.counts_by_code:
        lines.append("| rule | violations |")
        lines.append("|---|---|")
        for code, count in report.counts_by_code.items():
            lines.append(f"| {code} | {count} |")
        lines.append("")
        for violation in report.violations:
            lines.append(f"- `{violation.render()}`")
        lines.append("")
    lines.append("Whole-program dataflow (worker shared-state, purity):")
    lines.append("")
    lines.append("| dataflow metric | value |")
    lines.append("|---|---|")
    for key, value in sorted(report.dataflow.items()):
        lines.append(f"| {key.replace('_', ' ')} | {value} |")
    lines.append("")
    return lines


def build_report(results_dir: pathlib.Path) -> str:
    """Render all archived result tables as one markdown document."""
    available = {path.stem: path for path in sorted(results_dir.glob("*.txt"))}
    if not available:
        raise FileNotFoundError(
            f"no result files in {results_dir}; run "
            "'pytest benchmarks/ --benchmark-only' first"
        )
    ordered = [name for name in PREFERRED_ORDER if name in available]
    ordered += [name for name in sorted(available) if name not in ordered]

    lines = [
        "# Reproduction run report",
        "",
        "Generated from `benchmarks/results/` — see EXPERIMENTS.md for the",
        "paper-vs-measured discussion of each table.",
        "",
        "## Contents",
        "",
    ]
    repo_root = results_dir.parent.parent
    coverage_lines = coverage_summary(repo_root / "COVERAGE.json")
    obs_lines = observability_summary()
    for name in ordered:
        lines.append(f"- [{name}](#{name.replace('_', '-')})")
    if obs_lines:
        lines.append("- [observability](#observability)")
    if coverage_lines:
        lines.append("- [test_coverage](#test-coverage)")
    lines.append("- [static_analysis](#static-analysis)")
    lines.append("")
    for name in ordered:
        lines.append(f"## {name}")
        lines.append("")
        lines.append("```")
        lines.append(available[name].read_text().rstrip())
        lines.append("```")
        lines.append("")
    lines.extend(obs_lines)
    lines.extend(coverage_lines)
    source_dir = repo_root / "src" / "repro"
    if source_dir.is_dir():
        lines.extend(dhslint_summary(source_dir))
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    results_dir = pathlib.Path(argv[1]) if len(argv) > 1 else (
        pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"
    )
    output = pathlib.Path(argv[2]) if len(argv) > 2 else (
        results_dir.parent / "REPORT.md"
    )
    output.write_text(build_report(results_dir))
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
