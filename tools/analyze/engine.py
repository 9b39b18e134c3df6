"""Rule framework: registry, file contexts, suppressions, and the runner.

A rule is a subclass of :class:`Rule` with a unique ``code`` (``DHS101``
...), registered via the :func:`register` decorator.  The runner parses
each file once, hands every rule a :class:`FileContext`, and filters the
returned :class:`Violation` stream through inline suppressions
(``# dhslint: disable=DHS101,DHS301`` or ``# dhslint: disable=all``).
A suppression comment is anchored to the *full line span* of the
statement it sits on, so a comment on the first line of a multi-line
call (or on a decorator) also covers violations reported on the
continuation lines.

Whole-program (dataflow) rules subclass :class:`ProjectRule` instead and
receive a ``ProjectContext`` — a symbol table and call graph built over
every analyzed file at once (see :mod:`tools.analyze.dataflow`).  Every
:func:`analyze_paths` run applies both kinds of rule.
"""

from __future__ import annotations

import ast
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple, Type

from tools.analyze.config import Config

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dataflow imports engine)
    from tools.analyze.dataflow.project import ProjectContext

_SUPPRESS_RE = re.compile(r"#\s*dhslint:\s*disable=([A-Za-z0-9,\s]+)")


@dataclass(frozen=True)
class Violation:
    """One rule hit at a specific source location."""

    code: str
    message: str
    path: str
    line: int
    col: int

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class FileContext:
    """Everything a rule needs to know about one parsed source file."""

    path: Path
    source: str
    tree: ast.Module
    config: Config
    #: Dotted module name when the file sits inside a package tree (walked
    #: up through ``__init__.py`` files), else ``None`` (standalone snippet).
    module: Optional[str]

    @property
    def package_parts(self) -> Tuple[str, ...]:
        """Dotted-path components, empty for standalone files."""
        return tuple(self.module.split(".")) if self.module else ()

    def in_package(self) -> bool:
        """Whether the file belongs to the configured root package."""
        parts = self.package_parts
        return bool(parts) and parts[0] == self.config.package

    def is_package_init(self) -> bool:
        """Whether this file is a package ``__init__.py``."""
        return self.path.name == "__init__.py"


class Rule:
    """Base class for dhslint per-file rules.

    Subclasses set ``code``/``name``/``rationale`` and implement
    :meth:`check`.  ``rationale`` doubles as documentation: it is surfaced
    by ``--list-rules`` and the rule catalogue generator.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        raise NotImplementedError

    def violation(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            code=self.code,
            message=message,
            path=str(ctx.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )


class ProjectRule:
    """Base class for whole-program (dataflow) rules.

    Unlike :class:`Rule`, a project rule sees every analyzed file at once
    through a ``ProjectContext`` (symbol table + call graph).  The heavy
    analyses run once per context and are memoized there; each rule class
    filters the shared result stream down to its own code.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""

    def check_project(self, project: "ProjectContext") -> Iterable[Violation]:
        raise NotImplementedError


#: All registered per-file rules, keyed by code.
REGISTRY: Dict[str, Type[Rule]] = {}

#: All registered whole-program rules, keyed by code.
PROJECT_REGISTRY: Dict[str, Type[ProjectRule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to :data:`REGISTRY` (codes are unique)."""
    if not rule_cls.code:
        raise ValueError(f"rule {rule_cls.__name__} has no code")
    if rule_cls.code in REGISTRY or rule_cls.code in PROJECT_REGISTRY:
        raise ValueError(f"duplicate rule code {rule_cls.code}")
    REGISTRY[rule_cls.code] = rule_cls
    return rule_cls


def register_project(rule_cls: Type[ProjectRule]) -> Type[ProjectRule]:
    """Class decorator adding a rule to :data:`PROJECT_REGISTRY`."""
    if not rule_cls.code:
        raise ValueError(f"rule {rule_cls.__name__} has no code")
    if rule_cls.code in PROJECT_REGISTRY or rule_cls.code in REGISTRY:
        raise ValueError(f"duplicate rule code {rule_cls.code}")
    PROJECT_REGISTRY[rule_cls.code] = rule_cls
    return rule_cls


_HEADER_STMTS = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.If,
    ast.While,
    ast.For,
    ast.AsyncFor,
    ast.With,
    ast.AsyncWith,
    ast.Try,
)


def _statement_spans(tree: ast.Module) -> List[Tuple[int, int]]:
    """Line spans of every statement, decorators included.

    Compound statements (defs, classes, loops, ...) contribute their
    *header* only — a suppression on a decorator covers the ``def`` line
    but not the whole body; simple statements contribute their full span
    so a comment on the first line of a multi-line call also covers the
    continuation lines.
    """
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            start = node.lineno
            decorators = getattr(node, "decorator_list", [])
            if decorators:
                start = min(start, min(d.lineno for d in decorators))
            if isinstance(node, _HEADER_STMTS):
                first_body_line = node.body[0].lineno if node.body else node.lineno
                end = max(start, first_body_line - 1) if first_body_line > node.lineno else node.lineno
            else:
                end = getattr(node, "end_lineno", None) or node.lineno
            spans.append((start, end))
        elif isinstance(node, ast.ExceptHandler):
            spans.append((node.lineno, node.lineno))
    return spans


def suppression_table(source: str, tree: Optional[ast.Module] = None) -> Dict[int, frozenset]:
    """Map line number -> set of suppressed codes (or ``{"all"}``).

    With a parsed ``tree``, each suppression comment is widened to the
    full span of the (innermost) statement containing it.
    """
    comments: Dict[int, frozenset] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            codes = frozenset(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            comments[lineno] = codes
    if tree is None or not comments:
        return comments
    spans = _statement_spans(tree)
    table: Dict[int, set] = {line: set(codes) for line, codes in comments.items()}
    for line, codes in comments.items():
        containing = [s for s in spans if s[0] <= line <= s[1]]
        if not containing:
            continue
        # Innermost: latest start, then tightest end.
        start, end = max(containing, key=lambda s: (s[0], -s[1]))
        for covered in range(start, end + 1):
            table.setdefault(covered, set()).update(codes)
    return {line: frozenset(codes) for line, codes in table.items()}


def resolve_module(path: Path) -> Optional[str]:
    """Dotted module name for ``path``, walking up while ``__init__.py`` exists."""
    path = path.resolve()
    if path.suffix != ".py":
        return None
    parts: List[str] = [] if path.name == "__init__.py" else [path.stem]
    directory = path.parent
    in_package = False
    while (directory / "__init__.py").is_file():
        in_package = True
        parts.append(directory.name)
        directory = directory.parent
    if not parts or not in_package:
        # A file outside any package tree has no dotted name; rules with
        # module-scoped applicability treat it as an unscoped snippet.
        return None
    return ".".join(reversed(parts))


@dataclass
class Report:
    """Aggregate result of one analyzer run."""

    violations: List[Violation] = field(default_factory=list)
    suppressed: int = 0
    files: int = 0
    errors: List[str] = field(default_factory=list)
    #: Wall-clock seconds for the whole run (set by :func:`analyze_paths`).
    elapsed: float = 0.0
    #: Summary statistics of the whole-program pass.
    dataflow: Dict[str, int] = field(default_factory=dict)

    @property
    def counts_by_code(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.code] = counts.get(violation.code, 0) + 1
        return dict(sorted(counts.items()))


def _run_file_rules(
    ctx: FileContext, suppress: Dict[int, frozenset]
) -> Tuple[List[Violation], int]:
    """Run every per-file rule over one parsed file."""
    kept: List[Violation] = []
    suppressed = 0
    for _code, rule_cls in sorted(REGISTRY.items()):
        for violation in rule_cls().check(ctx):
            codes = suppress.get(violation.line, frozenset())
            if "all" in codes or violation.code in codes:
                suppressed += 1
            else:
                kept.append(violation)
    kept.sort(key=lambda v: (v.line, v.col, v.code))
    return kept, suppressed


def analyze_file(
    path: Path, config: Config, module: Optional[str] = None
) -> Tuple[List[Violation], int]:
    """Run every per-file rule over one file.

    Returns ``(violations, suppressed_count)``.  ``module`` overrides the
    filesystem-derived dotted name (useful for fixtures).  Raises
    ``SyntaxError`` if the file does not parse.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    ctx = FileContext(
        path=path,
        source=source,
        tree=tree,
        config=config,
        module=module if module is not None else resolve_module(path),
    )
    return _run_file_rules(ctx, suppression_table(source, tree))


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into the ``.py`` files to analyze."""
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def analyze_paths(paths: Iterable[Path], config: Config) -> Report:
    """Analyze every Python file under ``paths`` and aggregate the results.

    Each file is parsed once and checked by every per-file rule; then a
    :class:`ProjectContext` (symbol table + call graph over every file)
    is built and the whole-program rules (DHS8xx) run over it.
    """
    started = time.perf_counter()
    report = Report()
    contexts: List[FileContext] = []
    tables: Dict[str, Dict[int, frozenset]] = {}
    for file_path in iter_python_files(paths):
        report.files += 1
        try:
            source = file_path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(file_path))
        except OSError as exc:  # pragma: no cover - unreadable file
            report.errors.append(f"{file_path}: {exc}")
            continue
        except SyntaxError as exc:
            report.errors.append(
                f"{file_path}: syntax error: {exc.msg} (line {exc.lineno})"
            )
            continue
        ctx = FileContext(
            path=file_path,
            source=source,
            tree=tree,
            config=config,
            module=resolve_module(file_path),
        )
        contexts.append(ctx)
        tables[str(file_path)] = suppression_table(source, tree)
        violations, suppressed = _run_file_rules(ctx, tables[str(file_path)])
        report.violations.extend(violations)
        report.suppressed += suppressed
    _run_project_rules(contexts, config, report, tables)
    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    report.elapsed = time.perf_counter() - started
    return report


def _run_project_rules(
    contexts: List[FileContext],
    config: Config,
    report: Report,
    tables: Dict[str, Dict[int, frozenset]],
) -> None:
    """Build the project context and run every whole-program rule."""
    from tools.analyze.dataflow import build_project  # lazy: dataflow imports engine

    project = build_project(contexts, config)
    for _code, rule_cls in sorted(PROJECT_REGISTRY.items()):
        for violation in rule_cls().check_project(project):
            codes = tables.get(violation.path, {}).get(violation.line, frozenset())
            if "all" in codes or violation.code in codes:
                report.suppressed += 1
            else:
                report.violations.append(violation)
    report.dataflow = project.stats()
