"""The experiment registry: one :class:`Experiment` record per CLI name.

Each driver module declares its own record at its bottom; this module
only collects them.  The CLI (``python -m repro <name>``) and the bench
(``benchmarks/test_bench_experiments.py``) are generated from
:data:`EXPERIMENTS`, and :func:`run` is the one way to run an
experiment from code.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.experiments.ablations import ABLATIONS
from repro.experiments.accuracy import ACCURACY
from repro.experiments.baselines import BASELINES
from repro.experiments.churn import CHURN
from repro.experiments.common import Experiment
from repro.experiments.faultmatrix import FAULTMATRIX
from repro.experiments.histogram_accuracy import HISTOGRAM_ACCURACY
from repro.experiments.histogram_types import HISTOGRAM_TYPES
from repro.experiments.insertion import INSERTION
from repro.experiments.multidim import MULTIDIM
from repro.experiments.multitenant import MULTITENANT
from repro.experiments.query_opt import QUERY_OPT
from repro.experiments.robustness import ROBUSTNESS
from repro.experiments.scalability import SCALABILITY
from repro.experiments.soak import SOAK
from repro.experiments.table2 import TABLE2
from repro.experiments.table3 import TABLE3
from repro.experiments.tracing import TRACE

__all__ = ["EXPERIMENTS", "run"]

#: name -> record, in name order.
EXPERIMENTS: Dict[str, Experiment] = {
    entry.name: entry
    for entry in sorted(
        (ABLATIONS, ACCURACY, BASELINES, CHURN, FAULTMATRIX, HISTOGRAM_ACCURACY,
         HISTOGRAM_TYPES, INSERTION, MULTIDIM, MULTITENANT, QUERY_OPT, ROBUSTNESS,
         SCALABILITY, SOAK, TABLE2, TABLE3, TRACE),
        key=lambda entry: entry.name,
    )
}


def run(name: str, *, jobs: Optional[int] = None, **params: Any) -> Any:
    """Rows of experiment ``name`` at its defaults overridden by ``params``.

    ``jobs`` is the worker count for its cells (``None`` reads
    ``DHS_JOBS``); rows are bit-identical at any width.
    """
    if name not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {name!r}; expected one of {sorted(EXPERIMENTS)}"
        )
    entry = EXPERIMENTS[name]
    return entry.execute(entry.resolve(params), jobs)
