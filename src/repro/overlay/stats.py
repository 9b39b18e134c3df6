"""Cost accounting for overlay operations.

The paper evaluates DHS by *counting* — routing hops, bytes moved, nodes
visited, per-node storage and access load — rather than wall-clock timing.
:class:`OpCost` is the unit every overlay/DHS operation returns;
:class:`LoadTracker` aggregates per-node access counts for the
load-balancing analysis (constraint 3 of the paper's introduction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

__all__ = ["OpCost", "LoadTracker"]


@dataclass(slots=True)
class OpCost:
    """Hop/byte/visit tally of one (or many summed) overlay operations.

    ``nodes_visited`` holds the per-hop path only when the overlay's
    ``trace`` flag is set — by default the scalar counters
    (hops/messages/bytes/lookups) are maintained without allocating a
    list entry per routing hop (see docs/PERFORMANCE.md).
    """

    hops: int = 0
    bytes: float = 0.0
    messages: int = 0
    nodes_visited: List[int] = field(default_factory=list)
    lookups: int = 0
    #: Messages that timed out (dropped in flight or sent to a corpse and
    #: charged as a timeout hop by the retry machinery).
    timeouts: int = 0
    #: Retry attempts performed by a :class:`repro.core.policy.RetryPolicy`.
    retries: int = 0
    #: Messages lost for good after the retry budget ran out.
    drops: int = 0
    #: DHS entries re-written by read-repair and anti-entropy rounds.
    repair_writes: int = 0

    def add(self, other: "OpCost") -> "OpCost":
        """Accumulate ``other`` into this cost (in place)."""
        self.hops += other.hops
        self.bytes += other.bytes
        self.messages += other.messages
        self.nodes_visited.extend(other.nodes_visited)
        self.lookups += other.lookups
        self.timeouts += other.timeouts
        self.retries += other.retries
        self.drops += other.drops
        self.repair_writes += other.repair_writes
        return self

    def __iadd__(self, other: "OpCost") -> "OpCost":
        return self.add(other)

    @property
    def unique_nodes(self) -> int:
        """Number of distinct nodes visited."""
        return len(set(self.nodes_visited))

    @classmethod
    def total(cls, costs: Iterable["OpCost"]) -> "OpCost":
        """Sum a collection of costs into a fresh one."""
        out = cls()
        for cost in costs:
            out.add(cost)
        return out


class LoadTracker:
    """Per-node access counter with simple imbalance statistics.

    The overlay charges a store or probe with :meth:`record` and a
    lookup's route with one :meth:`record_path`; a plain dict keeps
    :meth:`counts` in first-charged order.  The summary statistics feed
    the access-load-balance comparison between DHS and the
    one-node-per-counter baseline.
    """

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}

    def record(self, node_id: int, amount: int = 1) -> None:
        """Charge ``amount`` accesses to ``node_id``."""
        self._counts[node_id] = self._counts.get(node_id, 0) + amount

    def record_path(self, node_ids: Iterable[int]) -> None:
        """Charge one access to every node of ``node_ids``, in order.

        The same per-node counts, first seen in the same order, as one
        :meth:`record` call per id: a route is charged with one call
        instead of one per hop.
        """
        counts = self._counts
        get = counts.get
        for node_id in node_ids:
            counts[node_id] = get(node_id, 0) + 1

    def count(self, node_id: int) -> int:
        """Accesses charged to ``node_id`` so far."""
        return self._counts.get(node_id, 0)

    def counts(self) -> Dict[int, int]:
        """A copy of the whole access map."""
        return dict(self._counts)

    def reset(self) -> None:
        """Forget all recorded accesses."""
        self._counts.clear()

    @property
    def total(self) -> int:
        """Total accesses across all nodes."""
        return sum(self._counts.values())

    def imbalance(self, population: Iterable[int]) -> float:
        """``max / mean`` access load over ``population`` (1.0 = perfect).

        Nodes in ``population`` that were never accessed count as zeros,
        which is what makes a hot single-counter node show up as a huge
        imbalance figure.
        """
        loads = [self._counts.get(node, 0) for node in population]
        if not loads:
            return 0.0
        mean = sum(loads) / len(loads)
        if mean == 0:
            return 0.0
        return max(loads) / mean
