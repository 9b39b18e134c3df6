"""The Distributed Hash Sketch facade — the library's main entry point.

Composes an overlay, a :class:`~repro.core.config.DHSConfig`, the
bit↦interval mapping, and the insertion/counting engines into the
public API a downstream user works with::

    from repro import ChordRing, DHSConfig, DistributedHashSketch

    ring = ChordRing.build(1024, seed=7)
    dhs = DistributedHashSketch(ring, DHSConfig(num_bitmaps=512))
    dhs.insert_bulk("documents", doc_ids)
    result = dhs.count("documents")
    print(result.estimate(), result.cost.hops)
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Optional,
    Sequence,
)

if TYPE_CHECKING:  # annotation only
    import random

    from repro.overlay.antientropy import AntiEntropyStats

import numpy as np
import numpy.typing as npt

from repro.core.config import DHSConfig
from repro.core.count import Counter, CountResult
from repro.core.insert import Inserter
from repro.core.mapping import BitIntervalMap
from repro.core.maintenance import (
    MaintenanceConfig,
    MaintenanceScheduler,
    antientropy_sweep,
    refresh,
    replica_divergence,
    sweep_expired,
)
from repro.core.policy import DEFAULT_POLICY, RetryPolicy
from repro.core.regstore import RegArena
from repro.core.tuples import merge_store_values, storage_entries
from repro.overlay.dht import DHTProtocol
from repro.overlay.replication import ChainView
from repro.overlay.stats import OpCost
from repro.sketches.base import HashSketch

__all__ = ["DistributedHashSketch"]


class DistributedHashSketch:
    """A DHS deployment over an arbitrary DHT overlay.

    Parameters
    ----------
    dht:
        Any :class:`~repro.overlay.dht.DHTProtocol` (Chord, Kademlia...).
        The overlay's graceful-leave merge hook is installed so DHS
        entries survive node departures correctly.
    config:
        The deployment parameters; defaults reproduce the paper's setup.
    seed:
        Master seed for the random target-key choices of insertion and
        counting.
    policy:
        The :class:`~repro.core.policy.RetryPolicy` applied to every
        insert store and counting lookup/probe.  The default performs no
        retries and leaves fault-free runs byte-identical.
    """

    def __init__(
        self,
        dht: DHTProtocol,
        config: Optional[DHSConfig] = None,
        seed: int = 0,
        policy: RetryPolicy = DEFAULT_POLICY,
    ) -> None:
        self.dht = dht
        self.config = config or DHSConfig()
        self.policy = policy
        self.seed = seed
        self.mapping = BitIntervalMap(dht.space, self.config)
        self.hash_family = self.config.hash_family(dht.space.bits)
        #: Register arena of the ``store="array"`` backend; ``None``
        #: selects the per-object ``PackedSlot`` reference backend.
        self.arena: Optional[RegArena] = (
            RegArena(self.config.num_bitmaps) if self.config.store == "array" else None
        )
        self._inserter = Inserter(
            dht, self.config, self.mapping, self.hash_family, seed,
            policy=policy, arena=self.arena,
        )
        self._counter = Counter(
            dht, self.config, self.mapping, self.hash_family, seed,
            policy=policy, arena=self.arena,
        )
        dht.store_merge = merge_store_values
        #: The replica-chain view that rounds and the divergence gauge
        #: share, kept across ticks (see :meth:`_chain_view`).
        self._view: Optional[ChainView] = None

    # ------------------------------------------------------------------
    # Writing.
    # ------------------------------------------------------------------
    def insert(
        self,
        metric_id: Hashable,
        item: Any,
        origin: Optional[int] = None,
        now: int = 0,
    ) -> OpCost:
        """Record one item under a metric; returns the op cost."""
        return self._inserter.insert(metric_id, item, origin=origin, now=now)

    def insert_many(
        self,
        metric_id: Hashable,
        items: Iterable[Any],
        origin: Optional[int] = None,
        now: int = 0,
    ) -> OpCost:
        """Record items one DHT store at a time (cost-faithful path)."""
        return self._inserter.insert_many(metric_id, items, origin=origin, now=now)

    def insert_bulk(
        self,
        metric_id: Hashable,
        items: Iterable[Any],
        origin: Optional[int] = None,
        now: int = 0,
    ) -> OpCost:
        """Record items grouped by interval (<= k stores total)."""
        return self._inserter.insert_bulk(metric_id, items, origin=origin, now=now)

    def insert_array(
        self,
        metric_id: Hashable,
        item_ids: "npt.NDArray[np.int64]",
        origin: Optional[int] = None,
        now: int = 0,
    ) -> OpCost:
        """Vectorized :meth:`insert_bulk` over an array of item ids.

        Hashes the whole array in one numpy pass and performs the same
        per-interval stores (same costs, same stored tuples) as the
        scalar bulk path — the fast lane for multi-million-item
        workloads (see docs/PERFORMANCE.md).
        """
        return self._inserter.insert_array(metric_id, item_ids, origin=origin, now=now)

    def refresh(
        self,
        metric_id: Hashable,
        items: Iterable[Any],
        origin: Optional[int] = None,
        now: int = 0,
    ) -> OpCost:
        """Refresh the soft state of live items (section 3.3)."""
        return refresh(self._inserter, metric_id, items, origin=origin, now=now)

    # ------------------------------------------------------------------
    # Counting.
    # ------------------------------------------------------------------
    def count(
        self,
        metric_id: Hashable,
        origin: Optional[int] = None,
        now: int = 0,
        expected_items: Optional[float] = None,
    ) -> CountResult:
        """Estimate the distinct-item count of one metric.

        ``expected_items`` feeds the ``eq6`` adaptive probe-budget policy
        (ignored under the default fixed policy).
        """
        return self._counter.count(
            metric_id, origin=origin, now=now, expected_items=expected_items
        )

    def count_many(
        self,
        metric_ids: Sequence[Hashable],
        origin: Optional[int] = None,
        now: int = 0,
        expected_items: Optional[float] = None,
    ) -> CountResult:
        """Estimate several metrics in one scan (multi-dimension count)."""
        return self._counter.count_many(
            metric_ids, origin=origin, now=now, expected_items=expected_items
        )

    # ------------------------------------------------------------------
    # Network-property metrics (section 3.2: "basic network parameters
    # such as the cardinality of the node population").
    # ------------------------------------------------------------------
    #: Reserved metric id under which nodes register themselves.
    NODE_POPULATION_METRIC = ("__dhs__", "nodes")

    def register_nodes(self, now: int = 0) -> OpCost:
        """Have every live node record itself (for population counting).

        In a real deployment each node does this on join and on every
        refresh round; the simulation performs one sweep.
        """
        total = OpCost()
        for node_id in list(self.dht.node_ids()):
            total.add(
                self.insert(self.NODE_POPULATION_METRIC, node_id, origin=node_id, now=now)
            )
        return total

    def count_nodes(self, origin: Optional[int] = None, now: int = 0) -> CountResult:
        """Estimate the live-node population (after :meth:`register_nodes`)."""
        return self.count(self.NODE_POPULATION_METRIC, origin=origin, now=now)

    # ------------------------------------------------------------------
    # Maintenance and introspection.
    # ------------------------------------------------------------------
    def sweep_expired(self, now: int) -> int:
        """Purge aged-out entries network-wide; returns entries freed."""
        return sweep_expired(self.dht, now)

    def antientropy(
        self,
        now: int = 0,
        *,
        sample: Optional[int] = None,
        rng: Optional["random.Random"] = None,
    ) -> "AntiEntropyStats":
        """One proactive anti-entropy round over the replica chains.

        Digest-tree exchange plus OR-merge between every responsive node
        and its chain successors; a no-op (empty stats) when replication
        is disabled.  ``sample`` with a seeded ``rng`` limits the round
        to a subset of initiators; a ``sample`` below 1 or without an
        ``rng`` raises ``ValueError``.  See
        :func:`repro.core.maintenance.antientropy_sweep`.
        """
        view = self._chain_view(now) if self.config.replication > 0 else None
        return antientropy_sweep(
            self.dht,
            self.config.replication,
            now,
            mapping=self.mapping,
            size_model=self.config.size_model,
            arena=self.arena,
            sample=sample,
            rng=rng,
            view=view,
        )

    def replica_divergence(self, now: int = 0) -> int:
        """Missing replica copies across all chains (0 when converged).

        Reads the chain view the rounds keep, brought to ``now``: only
        the pairs whose ints changed since their last check or count are
        counted again.  It returns what a fresh recount returns.
        """
        if self.config.replication <= 0:
            return 0
        return replica_divergence(
            self.dht, self.config.replication, now, self._chain_view(now)
        )

    def _chain_view(self, now: int) -> ChainView:
        """The deployment's chain view, brought to ``now``.

        One view serves every round and gauge reading while the nodes
        that answer stay the same; it re-packs only the stores that
        changed or expired since.  A join, leave, crash or fault-state
        change (or a ``now`` earlier than the view's) makes it build
        afresh, with every pair unchecked.
        """
        view = self._view
        if view is None or not view.advance(now):
            view = self._view = ChainView(self.dht, now)
        return view

    def make_scheduler(
        self,
        config: MaintenanceConfig,
        seed: Optional[int] = None,
        refresh_fn: Optional[Callable[[int], OpCost]] = None,
    ) -> MaintenanceScheduler:
        """A deterministic maintenance driver bound to this deployment."""
        return MaintenanceScheduler(
            self,
            config,
            seed=self.seed if seed is None else seed,
            refresh_fn=refresh_fn,
        )

    def storage_per_node(self) -> Dict[int, int]:
        """DHS entries stored at each live node.

        Unmaterialized members (lazy membership at N=10^5–10^6) have by
        construction never been written to, so they count as 0 entries
        without being materialized — the full map stays O(N) ints, not
        O(N) node objects.
        """
        result: Dict[int, int] = {}
        for node_id in self.dht.node_ids():
            node = self.dht.node_if_materialized(node_id)
            result[node_id] = 0 if node is None else storage_entries(node)
        return result

    def storage_bytes_per_node(self) -> Dict[int, float]:
        """Approximate stored bytes per node (entries × tuple size)."""
        tuple_bytes = self.config.size_model.tuple_bytes
        return {
            node_id: entries * tuple_bytes
            for node_id, entries in self.storage_per_node().items()
        }

    def local_sketch(self, items: Iterable[Any]) -> HashSketch:
        """A centralized reference sketch over ``items`` (ground truth).

        Uses the same hash family and parameters, so a lossless
        distributed count reconstructs exactly this sketch's state.
        """
        sketch = self.config.make_sketch(self.hash_family)
        sketch.add_all(items)
        return sketch
