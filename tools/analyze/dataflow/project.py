"""ProjectContext: the shared whole-program state behind every DHS8xx rule.

Built once per ``analyze_paths`` run: the symbol table and call graph
are constructed eagerly; the two dataflow analyses (worker shared-state,
purity effects) are memoized lazily so each runs at most once no matter
how many rule classes consume its result stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from tools.analyze.config import Config
from tools.analyze.engine import FileContext
from tools.analyze.dataflow.callgraph import CallGraph, build_callgraph
from tools.analyze.dataflow.symbols import SymbolTable, build_symbols

if TYPE_CHECKING:  # pragma: no cover - typing only
    from tools.analyze.dataflow.purity import EffectAnalysis
    from tools.analyze.dataflow.shared_state import WorkerAnalysis

__all__ = ["ProjectContext", "build_project"]


class ProjectContext:
    """Symbol table + call graph + memoized dataflow analyses."""

    def __init__(self, contexts: List[FileContext], config: Config) -> None:
        self.contexts = contexts
        self.config = config
        self.symbols: SymbolTable = build_symbols(contexts)
        self.graph: CallGraph = build_callgraph(self.symbols, config)
        self._effects: Optional["EffectAnalysis"] = None
        self._worker: Optional["WorkerAnalysis"] = None

    # ------------------------------------------------------------------
    # Memoized analyses (each runs once per project build).
    # ------------------------------------------------------------------
    def effects(self) -> "EffectAnalysis":
        if self._effects is None:
            from tools.analyze.dataflow.purity import EffectAnalysis

            self._effects = EffectAnalysis(self)
        return self._effects

    def worker(self) -> "WorkerAnalysis":
        if self._worker is None:
            from tools.analyze.dataflow.shared_state import WorkerAnalysis

            self._worker = WorkerAnalysis(self)
        return self._worker

    def stats(self) -> Dict[str, int]:
        """Summary counters for reports (``Report.dataflow``)."""
        worker = self.worker()
        return {
            "modules": len(self.symbols.modules),
            "functions": len(self.symbols.functions),
            "classes": len(self.symbols.classes),
            "call_edges": self.graph.edge_count,
            "worker_roots": len(worker.roots),
            "worker_reachable": len(worker.reachable),
            "purity_required": len(self.effects().required),
        }


def build_project(contexts: List[FileContext], config: Config) -> ProjectContext:
    """Build the whole-program context over every parsed file."""
    return ProjectContext(contexts, config)
