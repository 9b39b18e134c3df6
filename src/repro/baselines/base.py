"""Shared types for the related-work baseline estimators.

The paper's introduction sorts prior distributed-counting work into four
families — one-node-per-counter, gossip, broadcast/convergecast, and
sampling — and argues each violates at least one of its six constraints.
This package implements a representative of each family against the same
scenario shape (items held per node) so the violations can be *measured*
rather than asserted: hotspot load, round counts, duplicate sensitivity,
sampling error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.overlay.stats import OpCost

__all__ = ["Scenario", "BaselineResult", "distinct_count"]

#: Items held per node: the common input of every baseline.
Scenario = Dict[int, List]


def distinct_count(scenario: Scenario) -> int:
    """Ground-truth number of distinct items in a scenario."""
    seen = set()
    for items in scenario.values():
        seen.update(items)
    return len(seen)


@dataclass
class BaselineResult:
    """Outcome of one baseline estimation run."""

    estimate: float
    cost: OpCost = field(default_factory=OpCost)
    #: Iterations for multi-round protocols (gossip), else 1.
    rounds: int = 1
    #: True when the estimator counts distinct items (constraint 6).
    duplicate_insensitive: bool = False
