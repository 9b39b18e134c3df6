"""One-node-per-counter baseline (paper section 1, first family).

The obvious DHT design: hash the counter's name to a node and let that
node keep the value.  Every update and every query hits the same node,
so the counter node's access load grows linearly with activity — the
scalability/load-balance violation (constraints 2 and 3) the paper calls
out.  Distinct counting additionally requires the counter node to store
the full item-id set (O(n) storage, constraint 3 again).

:class:`PartitionedCounter` is the family's other member the paper
names — "hash-partitioned counters, where the counting space is
partitioned into disjoint intervals, each mapped to a (set of) node(s)".
Spreading over ``P`` partitions divides the hotspot by ``P`` but
multiplies query cost by ``P`` (every partition must be read), which is
the paper's point: a fixed small node set "does not solve the problem".
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Set, cast

from repro.baselines.base import BaselineResult, Scenario
from repro.hashing.family import HashFamily, default_hash_family
from repro.overlay.dht import DHTProtocol
from repro.overlay.node import Node
from repro.overlay.stats import OpCost

__all__ = ["SingleNodeCounter", "PartitionedCounter"]


class SingleNodeCounter:
    """A counter (optionally duplicate-insensitive) on one DHT node."""

    def __init__(
        self,
        dht: DHTProtocol,
        counter_id: Hashable,
        distinct: bool = True,
        hash_family: Optional[HashFamily] = None,
    ) -> None:
        self.dht = dht
        self.counter_id = counter_id
        self.distinct = distinct
        self.hash_family = hash_family or default_hash_family(bits=dht.space.bits)
        self._key = self.hash_family(("counter", counter_id)) & (dht.space.size - 1)

    # ------------------------------------------------------------------
    # Updates.
    # ------------------------------------------------------------------
    def add(self, item: Hashable, origin: Optional[int] = None) -> OpCost:
        """Record one item occurrence (routed to the counter node)."""

        def write(node: Node) -> None:
            slot = cast(
                Dict[str, Any],
                node.store.setdefault(
                    ("counter", self.counter_id), {"n": 0, "set": set()}
                ),
            )
            if self.distinct:
                slot["set"].add(item)
            else:
                slot["n"] += 1

        _, cost = self.dht.store(self._key, write, origin=origin, payload_bytes=8)
        return cost

    def populate(self, scenario: Scenario) -> OpCost:
        """Insert every item occurrence from its holding node."""
        total = OpCost()
        for node_id, items in scenario.items():
            for item in items:
                total.add(self.add(item, origin=node_id))
        return total

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def query(self, origin: Optional[int] = None) -> BaselineResult:
        """Read the counter value (one routed lookup)."""
        lookup = self.dht.lookup(self._key, origin=origin)
        slot = self.dht.probe(
            lookup.node_id,
            lambda node: node.store.get(("counter", self.counter_id)),
        )
        if slot is None:
            value = 0.0
        elif self.distinct:
            value = float(len(slot["set"]))
        else:
            value = float(slot["n"])
        cost = lookup.cost
        cost.bytes += cost.hops * 8 + 8  # request routed + direct response
        return BaselineResult(
            estimate=value, cost=cost, duplicate_insensitive=self.distinct
        )


class PartitionedCounter:
    """Hash-partitioned distinct counter over ``P`` fixed partitions.

    Updates hash the *item* to one of ``P`` counter keys; queries must
    contact all ``P`` partition owners and sum their distinct counts
    (partitioning by item hash makes the partial sets disjoint, so the
    sum is exact).
    """

    def __init__(
        self,
        dht: DHTProtocol,
        counter_id: Hashable,
        partitions: int = 8,
        hash_family: Optional[HashFamily] = None,
    ) -> None:
        if partitions < 1:
            raise ValueError(f"partitions must be >= 1, got {partitions}")
        self.dht = dht
        self.counter_id = counter_id
        self.partitions = partitions
        self.hash_family = hash_family or default_hash_family(bits=dht.space.bits)
        self._keys = [
            self.hash_family(("partition", counter_id, i)) & (dht.space.size - 1)
            for i in range(partitions)
        ]

    def add(self, item: Hashable, origin: Optional[int] = None) -> OpCost:
        """Record one item in its hash partition."""
        index = self.hash_family(item) % self.partitions

        def write(node: Node) -> None:
            slot = cast(
                Set[Hashable],
                node.store.setdefault(("partition", self.counter_id, index), set()),
            )
            slot.add(item)

        _, cost = self.dht.store(self._keys[index], write, origin=origin, payload_bytes=8)
        return cost

    def populate(self, scenario: Scenario) -> OpCost:
        """Insert every item occurrence from its holding node."""
        total = OpCost()
        for node_id, items in scenario.items():
            for item in items:
                total.add(self.add(item, origin=node_id))
        return total

    def query(self, origin: Optional[int] = None) -> BaselineResult:
        """Read every partition and sum (P routed lookups)."""
        cost = OpCost()
        total = 0.0
        for index, key in enumerate(self._keys):
            lookup = self.dht.lookup(key, origin=origin)
            slot = self.dht.probe(
                lookup.node_id,
                lambda node, i=index: node.store.get(
                    ("partition", self.counter_id, i)
                ),
            )
            total += len(slot) if slot else 0
            cost.add(lookup.cost)
            cost.bytes += lookup.cost.hops * 8 + 8
        return BaselineResult(
            estimate=total, cost=cost, duplicate_insensitive=True
        )
