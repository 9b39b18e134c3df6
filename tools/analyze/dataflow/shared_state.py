"""Worker-reachability shared-state write analysis (DHS811–DHS813).

``run_trials`` fans trial cells out to worker processes; results come
back only through the sanctioned channels (returned snapshots merged by
``MetricsRegistry.merge_snapshot``, node stores owned by the overlay).
Any *other* mutation of shared-looking state inside worker-reachable
code is a bug factory: it silently works under ``DHS_JOBS=1`` and
diverges under parallel execution.

Worker entry points (roots) are discovered structurally: every ``fn=``
argument of a ``TrialSpec(...)`` construction, resolved through the
symbol table.  The reachable set is the call-graph closure of those
roots.  Within it (minus the sanctioned ``worker_exempt`` modules):

* **DHS811** — a direct module-global mutation;
* **DHS812** — a node-store write (``*.store[...] = ...`` or a mutator
  call on ``*.store``) outside the ``store_write_modules`` owners;
* **DHS813** — a direct mutation of obs internals (an object imported
  from ``repro.obs``) instead of snapshot merging.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set

from tools.analyze.engine import ProjectRule, Violation, register_project
from tools.analyze.dataflow.callgraph import CallResolver, iter_calls
from tools.analyze.dataflow.purity import (
    MUTATOR_METHODS,
    WRITES_GLOBAL,
    _root_name,
    module_in,
)
from tools.analyze.dataflow.symbols import FunctionInfo, _dotted

if TYPE_CHECKING:  # pragma: no cover - typing only
    from tools.analyze.dataflow.project import ProjectContext

__all__ = ["WorkerAnalysis"]

#: Package prefix owning the observability internals guarded by DHS813.
OBS_PREFIX = "repro.obs"


class WorkerAnalysis:
    """Worker roots, reachable set, and DHS81x violations."""

    def __init__(self, project: "ProjectContext") -> None:
        self.project = project
        #: Worker entry points: resolved ``fn=`` arguments of TrialSpec calls.
        self.roots: Set[str] = set()
        self.reachable: Set[str] = set()
        self.violations: Dict[str, List[Violation]] = {
            "DHS811": [],
            "DHS812": [],
            "DHS813": [],
        }
        self._run()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        self._find_roots()
        self.reachable = self.project.graph.reachable(self.roots)
        exempt = self.project.config.worker_exempt
        for qualname in sorted(self.reachable):
            fn = self.project.symbols.functions.get(qualname)
            if fn is None or module_in(fn.module, exempt):
                continue
            self._check_global_writes(fn)
            self._check_store_and_obs_writes(fn)

    def _find_roots(self) -> None:
        symbols = self.project.symbols
        config = self.project.config
        for fn in symbols.functions.values():
            for call in iter_calls(fn.node):
                dotted = _dotted(call.func)
                if dotted is None:
                    continue
                canonical = symbols.canonical_from(fn.module, dotted)
                if canonical != config.trial_spec:
                    continue
                for keyword in call.keywords:
                    if keyword.arg != "fn":
                        continue
                    target = symbols.resolve_expr(fn.module, keyword.value)
                    if target is not None and target in symbols.functions:
                        self.roots.add(target)

    # ------------------------------------------------------------------
    def _check_global_writes(self, fn: FunctionInfo) -> None:
        effect = self.project.effects().effects.get(fn.qualname, {}).get(WRITES_GLOBAL)
        if effect is None or effect.via is not None:
            return  # chain writes are reported at the function that writes
        path = self._path(fn)
        self.violations["DHS811"].append(
            Violation(
                code="DHS811",
                message=(
                    f"worker-reachable {fn.qualname} {effect.detail}: workers "
                    "must return snapshots (merge via "
                    "MetricsRegistry.merge_snapshot), not mutate shared state"
                ),
                path=path,
                line=effect.line,
                col=effect.col,
            )
        )

    def _check_store_and_obs_writes(self, fn: FunctionInfo) -> None:
        config = self.project.config
        path = self._path(fn)
        store_ok = module_in(fn.module, config.store_write_modules)
        resolver = CallResolver(self.project.symbols, config, fn)
        reported: Set[int] = set()
        # Writes inside a callback handed to the overlay ``*.store(key, fn)``
        # API are the sanctioned route — the overlay invokes the callback on
        # the owning node with replication/accounting applied.
        sanctioned = _store_callback_nodes(fn.node)

        def report(code: str, node: ast.AST, message: str) -> None:
            if id(node) in reported:
                return
            reported.add(id(node))
            self.violations[code].append(
                Violation(
                    code=code,
                    message=message,
                    path=path,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0),
                )
            )

        for node in ast.walk(fn.node):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            for target in targets:
                if not isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue
                if not store_ok and id(node) not in sanctioned and _touches_store(target):
                    report(
                        "DHS812",
                        node,
                        f"{fn.qualname} writes a node store directly — only "
                        f"{'/'.join(config.store_write_modules)} own store "
                        "writes; go through the overlay store API",
                    )
                obs_target = self._obs_binding(fn, target)
                if obs_target is not None:
                    report(
                        "DHS813",
                        node,
                        f"{fn.qualname} mutates obs internals ({obs_target}) "
                        "directly — use MetricsRegistry.merge_snapshot / the "
                        "tracer API",
                    )
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr not in MUTATOR_METHODS:
                    continue
                if resolver.resolve_call(node):
                    continue  # resolved project method: effects pass covers it
                receiver = node.func.value
                if not store_ok and id(node) not in sanctioned and _touches_store(receiver):
                    report(
                        "DHS812",
                        node,
                        f"{fn.qualname} calls .{node.func.attr}(...) on a node "
                        "store — only "
                        f"{'/'.join(config.store_write_modules)} own store "
                        "writes; go through the overlay store API",
                    )
                obs_target = self._obs_binding(fn, receiver)
                if obs_target is not None:
                    report(
                        "DHS813",
                        node,
                        f"{fn.qualname} calls .{node.func.attr}(...) on obs "
                        f"internals ({obs_target}) — use "
                        "MetricsRegistry.merge_snapshot / the tracer API",
                    )

    def _obs_binding(self, fn: FunctionInfo, node: ast.expr) -> Optional[str]:
        """Canonical name when ``node`` is rooted at an obs-owned binding."""
        root = _root_name(node)
        if root is None:
            return None
        canonical = self.project.symbols.canonical_from(fn.module, root)
        if canonical is not None and (
            canonical == OBS_PREFIX or canonical.startswith(OBS_PREFIX + ".")
        ):
            return canonical
        return None

    def _path(self, fn: FunctionInfo) -> str:
        module = self.project.symbols.modules.get(fn.module)
        return str(module.ctx.path) if module is not None else fn.module


def _store_callback_nodes(fn_node: ast.AST) -> Set[int]:
    """AST node ids inside callbacks passed to an overlay ``*.store(...)`` call.

    The write path of the baselines/query layers is
    ``dht.store(key, write)`` with a local ``def write(node): ...``; the
    body of such a callback is the sanctioned store-write site.
    """
    callback_names: Set[str] = set()
    for node in ast.walk(fn_node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "store"
        ):
            for arg in [*node.args, *[k.value for k in node.keywords]]:
                if isinstance(arg, ast.Name):
                    callback_names.add(arg.id)
    sanctioned: Set[int] = set()
    for node in ast.walk(fn_node):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not fn_node
            and node.name in callback_names
        ):
            for inner in ast.walk(node):
                sanctioned.add(id(inner))
    return sanctioned


def _touches_store(node: ast.expr) -> bool:
    """Whether an attribute/subscript chain passes through ``.store``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and node.attr == "store":
            return True
        node = node.value
    return False


@register_project
class GlobalWriteRule(ProjectRule):
    code = "DHS811"
    name = "worker-global-write"
    rationale = (
        "Module-global mutations inside worker-reachable code only apply in "
        "the worker's address space: results silently diverge between "
        "DHS_JOBS=1 and parallel runs."
    )

    def check_project(self, project: "ProjectContext") -> Iterable[Violation]:
        return project.worker().violations["DHS811"]


@register_project
class StoreWriteRule(ProjectRule):
    code = "DHS812"
    name = "worker-store-write"
    rationale = (
        "Node stores are owned by the overlay layer; out-of-API writes from "
        "worker-reachable code bypass replication and tuple accounting."
    )

    def check_project(self, project: "ProjectContext") -> Iterable[Violation]:
        return project.worker().violations["DHS812"]


@register_project
class ObsWriteRule(ProjectRule):
    code = "DHS813"
    name = "worker-obs-write"
    rationale = (
        "Metrics and traces cross process boundaries as immutable snapshots "
        "merged by MetricsRegistry.merge_snapshot; direct mutation of obs "
        "internals from worker code is lost or double-counted."
    )

    def check_project(self, project: "ProjectContext") -> Iterable[Violation]:
        return project.worker().violations["DHS813"]
