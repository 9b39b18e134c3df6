"""Whole-program dataflow analysis for dhslint (the DHS8xx rules).

Importing this package registers the project rules:

* :mod:`tools.analyze.dataflow.shared_state` — worker-reachable
  shared-state writes (DHS811–DHS813);
* :mod:`tools.analyze.dataflow.purity` — purity inference (DHS821–DHS822).

The shared infrastructure lives in :mod:`~tools.analyze.dataflow.symbols`
(project symbol table), :mod:`~tools.analyze.dataflow.callgraph`
(conservative call graph), and :mod:`~tools.analyze.dataflow.project`
(the memoizing ``ProjectContext`` handed to every rule).
"""

from tools.analyze.dataflow.project import ProjectContext, build_project

# Importing the pass modules registers their ProjectRule subclasses.
from tools.analyze.dataflow import purity as _purity  # noqa: F401
from tools.analyze.dataflow import shared_state as _shared_state  # noqa: F401

__all__ = ["ProjectContext", "build_project"]
