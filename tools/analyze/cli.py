"""Command-line front end: ``python -m tools.analyze [paths...]``.

One run applies every per-file and whole-program rule.  Exit status: 0
clean, 1 violations found, 2 usage/parse errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from tools.analyze.config import Config
from tools.analyze.engine import PROJECT_REGISTRY, REGISTRY, Report, analyze_paths


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.analyze",
        description="dhslint: AST-based invariant checker for the DHS stack.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _render_rules() -> str:
    lines = []
    catalogue = {**REGISTRY, **PROJECT_REGISTRY}
    for code, rule_cls in sorted(catalogue.items()):
        scope = " [project]" if code in PROJECT_REGISTRY else ""
        lines.append(f"{code} ({rule_cls.name}){scope}")
        lines.append(f"    {rule_cls.rationale}")
    return "\n".join(lines)


def render_text(report: Report) -> str:
    lines = [violation.render() for violation in report.violations]
    lines.extend(report.errors)
    counts = report.counts_by_code
    summary = ", ".join(f"{code}×{n}" for code, n in counts.items()) or "clean"
    lines.append(
        f"dhslint: {len(report.violations)} violation(s) "
        f"[{summary}], {report.suppressed} suppressed, "
        f"{report.files} file(s) checked"
    )
    stats = ", ".join(f"{key}={value}" for key, value in sorted(report.dataflow.items()))
    lines.append(f"dhslint: dataflow [{stats}]")
    lines.append(f"dhslint: finished in {report.elapsed:.2f}s")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        print(_render_rules())
        return 0
    paths: List[Path] = []
    for raw in args.paths:
        path = Path(raw)
        if not path.exists():
            print(f"dhslint: no such path: {raw}", file=sys.stderr)
            return 2
        paths.append(path)
    report = analyze_paths(paths, Config())
    print(render_text(report))
    if report.errors:
        return 2
    return 1 if report.violations else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
