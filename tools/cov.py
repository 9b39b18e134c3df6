"""Stdlib line-coverage runner for the ``repro`` package.

Usage::

    PYTHONPATH=src python tools/cov.py [--fail-under PCT] [pytest args...]

Runs pytest under a ``sys.settrace`` hook that records executed lines in
``src/repro`` only (everything else stays untraced at the call level, so
the slowdown is modest), then compares them against the executable-line
set derived from each module's compiled code objects, and prints the
per-package figures.  No third-party coverage package is required, which
keeps the tool usable in minimal containers; CI uses ``pytest-cov`` for
the enforced gate and this script is the local, dependency-free
equivalent.  It writes no file.

Caveats: work dispatched to ``DHS_JOBS`` worker *processes* is not
traced (the hook is per-process), and lines only reachable inside such
workers will read as uncovered — the determinism tests exercise the same
code serially, so in practice this costs a fraction of a percent.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import threading
import types
from typing import Dict, Set

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def executable_lines(path: pathlib.Path) -> Set[int]:
    """Line numbers carrying bytecode anywhere in ``path``'s code objects."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: Set[int] = set()
    stack = [code]
    while stack:
        current = stack.pop()
        for _, _, line in current.co_lines():
            if line is not None:
                lines.add(line)
        for const in current.co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)
    return lines


class LineCollector:
    """Records executed lines for files whose path contains ``src/repro``."""

    def __init__(self) -> None:
        self.executed: Dict[str, Set[int]] = {}

    def _wanted(self, filename: str) -> bool:
        return "src/repro/" in filename or filename.startswith("src/repro")

    def _global_trace(self, frame, event, arg):  # type: ignore[no-untyped-def]
        if event != "call" or not self._wanted(frame.f_code.co_filename):
            return None
        lines = self.executed.setdefault(frame.f_code.co_filename, set())
        lines.add(frame.f_lineno)

        def local_trace(frame, event, arg):  # type: ignore[no-untyped-def]
            if event == "line":
                lines.add(frame.f_lineno)
            return local_trace

        return local_trace

    def start(self) -> None:
        threading.settrace(self._global_trace)
        sys.settrace(self._global_trace)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]

    def lines_for(self, path: pathlib.Path) -> Set[int]:
        """Executed lines for ``path`` under any spelling of its name."""
        resolved = path.resolve()
        merged: Set[int] = set()
        for filename, lines in self.executed.items():
            if pathlib.Path(filename).resolve() == resolved:
                merged |= lines
        return merged


def measure(collector: LineCollector, source: pathlib.Path) -> dict:
    """Per-package and total coverage of every ``.py`` file under ``source``."""
    packages: Dict[str, dict] = {}
    total_statements = 0
    total_covered = 0
    for path in sorted(source.rglob("*.py")):
        statements = executable_lines(path)
        covered = collector.lines_for(path) & statements
        parts = path.relative_to(source).parts
        package = "repro" if len(parts) == 1 else f"repro.{parts[0]}"
        bucket = packages.setdefault(package, {"statements": 0, "covered": 0})
        bucket["statements"] += len(statements)
        bucket["covered"] += len(covered)
        total_statements += len(statements)
        total_covered += len(covered)
    for bucket in packages.values():
        bucket["percent"] = (
            round(100.0 * bucket["covered"] / bucket["statements"], 2)
            if bucket["statements"]
            else 100.0
        )
    return {
        "total": {
            "statements": total_statements,
            "covered": total_covered,
            "percent": round(100.0 * total_covered / total_statements, 2)
            if total_statements
            else 100.0,
        },
        "packages": dict(sorted(packages.items())),
    }


def render_table(report: dict) -> str:
    """Human-readable per-package summary."""
    width = max(len(name) for name in report["packages"]) if report["packages"] else 8
    lines = [f"{'package':<{width}}  stmts  miss  cover"]
    for name, bucket in report["packages"].items():
        miss = bucket["statements"] - bucket["covered"]
        lines.append(
            f"{name:<{width}}  {bucket['statements']:>5}  {miss:>4}  "
            f"{bucket['percent']:>5.1f}%"
        )
    total = report["total"]
    miss = total["statements"] - total["covered"]
    lines.append(
        f"{'TOTAL':<{width}}  {total['statements']:>5}  {miss:>4}  "
        f"{total['percent']:>5.1f}%"
    )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--source", default="src/repro")
    parser.add_argument("--fail-under", type=float, default=None)
    parser.add_argument("pytest_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv[1:])

    import pytest

    source = (_REPO_ROOT / args.source).resolve()
    collector = LineCollector()
    collector.start()
    try:
        exit_code = pytest.main(args.pytest_args or ["-x", "-q"])
    finally:
        collector.stop()
    report = measure(collector, source)
    print(render_table(report))
    if exit_code:
        return int(exit_code)
    if args.fail_under is not None and report["total"]["percent"] < args.fail_under:
        print(
            f"coverage {report['total']['percent']:.2f}% is below the "
            f"--fail-under floor of {args.fail_under:.2f}%"
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
