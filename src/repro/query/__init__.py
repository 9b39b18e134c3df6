"""Query processing over DHS histograms: catalog, optimizer, engine."""

from repro.query.catalog import Catalog, CatalogEntry
from repro.query.engine import ExecutionResult, execute_plan
from repro.query.join import estimate_join_size, true_join_size
from repro.query.optimizer import optimize
from repro.query.plans import BaseRel, JoinNode, Plan, leaves, left_deep_plan

__all__ = [
    "Catalog",
    "CatalogEntry",
    "ExecutionResult",
    "execute_plan",
    "estimate_join_size",
    "true_join_size",
    "optimize",
    "BaseRel",
    "JoinNode",
    "Plan",
    "leaves",
    "left_deep_plan",
]
