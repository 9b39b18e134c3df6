"""Join trees and the PIER-style data-transfer cost model.

In a DHT query processor (PIER and its FedeRated-Eddies variant, which
the paper uses as its motivating comparison), every join rehashes both
inputs through the overlay, so executing a join node *ships* both input
relations.  The cost of a plan is therefore the total bytes of every
join node's inputs — base relations and intermediates alike — which is
exactly what a good join order minimizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

__all__ = ["BaseRel", "JoinNode", "Plan", "leaves", "left_deep_plan"]


@dataclass(frozen=True)
class BaseRel:
    """A plan leaf: one base relation."""

    name: str


@dataclass(frozen=True)
class JoinNode:
    """An equi-join of two sub-plans on the shared attribute."""

    left: "PlanNode"
    right: "PlanNode"


PlanNode = Union[BaseRel, JoinNode]


def leaves(node: PlanNode) -> List[str]:
    """Relation names under a plan node, left to right."""
    if isinstance(node, BaseRel):
        return [node.name]
    return leaves(node.left) + leaves(node.right)


def left_deep_plan(order: List[str]) -> PlanNode:
    """The left-deep join tree following ``order`` as written.

    This is the "naive" FREddies-style plan: join relations in the order
    the query lists them, ignoring statistics.
    """
    if not order:
        raise ValueError("left_deep_plan needs at least one relation")
    node: PlanNode = BaseRel(order[0])
    for name in order[1:]:
        node = JoinNode(node, BaseRel(name))
    return node


@dataclass
class Plan:
    """A join tree plus the optimizer's cost bookkeeping."""

    root: PlanNode
    estimated_cost_bytes: float
    estimated_rows: float

    def describe(self) -> str:
        """Parenthesized rendering, e.g. ``((Q ⋈ R) ⋈ T)``."""

        def render(node: PlanNode) -> str:
            if isinstance(node, BaseRel):
                return node.name
            return f"({render(node.left)} ⋈ {render(node.right)})"

        return render(self.root)
