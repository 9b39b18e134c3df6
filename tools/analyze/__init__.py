"""dhslint — AST-based invariant checker for the DHS reproduction.

The test suite can only *sample* the invariants this codebase rests on:
bit-for-bit deterministic replay from one master seed, a strict import
layering DAG, and numerically careful estimator code.  ``dhslint`` checks
whole classes of violations statically, so refactors can move fast without
silently breaking determinism or the architecture.

Run it as::

    python -m tools.analyze [paths...]

Rules are small :class:`~tools.analyze.engine.Rule` subclasses registered
by code (``DHS101`` ...); whole-program rules (DHS8xx) are
:class:`~tools.analyze.engine.ProjectRule` subclasses, and every run
applies both.  Per-line suppressions use ``# dhslint: disable=DHS101``
(comma-separated codes, or ``all``); the project configuration is the
:class:`~tools.analyze.config.Config` dataclass.  See
``docs/STATIC_ANALYSIS.md`` for the full rule catalogue.
"""

from __future__ import annotations

from tools.analyze.config import Config
from tools.analyze.engine import (
    PROJECT_REGISTRY,
    REGISTRY,
    FileContext,
    ProjectRule,
    Report,
    Rule,
    Violation,
    analyze_file,
    analyze_paths,
)

# Importing the rule packages registers every per-file rule class and
# every whole-program (DHS8xx) rule class.
from tools.analyze import rules as _rules  # noqa: F401
from tools.analyze import dataflow as _dataflow  # noqa: F401

__all__ = [
    "Config",
    "FileContext",
    "PROJECT_REGISTRY",
    "ProjectRule",
    "REGISTRY",
    "Report",
    "Rule",
    "Violation",
    "analyze_file",
    "analyze_paths",
]
