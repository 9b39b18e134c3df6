"""The DHT abstraction DHS is written against.

The paper stresses that DHS is *DHT-agnostic*: it asks an overlay
``owner_of(key)``, ``lookup(key)`` and ``interval_owners(lo, hi,
start)`` — who holds a key, the hop-counted route there, and which
nodes can hold an interval's keys, in counting-walk order.
:class:`DHTProtocol` captures exactly that contract; Chord, Kademlia
and Pastry are the three concrete geometries.  A geometry supplies
``owner_of`` and a next hop (whom a node forwards to); membership,
storage, the ring-id draw, the contact memo, the interval walk and the
timeout / evict / veto protocol of a routed lookup
(:meth:`DHTProtocol._route`) live here, once.  Chord alone keeps its
own loop: per-lookup state makes each of its hops one bisect.

Operations return ``(result, OpCost)`` pairs so callers can aggregate the
hop/bandwidth accounting the evaluation reports.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, cast

from repro.errors import (
    ConfigurationError,
    EmptyOverlayError,
    LookupFailedError,
    NodeNotFoundError,
)
from repro.obs import runtime as obs
from repro.overlay.idarray import SortedIdArray
from repro.overlay.idspace import IdSpace
from repro.overlay.node import Node, Stamp, StoreValue, store_changed
from repro.overlay.stats import LoadTracker, OpCost
from repro.sim.seeds import rng_for

__all__ = ["DHTProtocol", "FaultHooks", "LookupResult"]


@dataclass(slots=True)
class LookupResult:
    """Outcome of routing a key to its responsible node."""

    node_id: int
    cost: OpCost


class FaultHooks(ABC):
    """Routing-time questions a fault-injection layer answers.

    Implemented by :class:`repro.overlay.faults.FaultInjector`; the
    overlay consults the installed instance (``self.fault_layer``)
    during lookups so transient outages cost timeout hops without
    permanently mutating the membership.
    """

    @abstractmethod
    def responsive(self, node_id: int) -> bool:
        """Whether the (alive) node currently answers messages."""

    @abstractmethod
    def veto_eviction(self, node_id: int) -> bool:
        """Whether a timed-out node must *not* be evicted (transient)."""


class DHTProtocol(ABC):
    """Common machinery for the simulated DHT geometries.

    Subclasses implement the geometry: who is responsible for a key, and
    how a lookup is routed hop by hop.

    Membership is memory-lean (see docs/PERFORMANCE.md): the ground
    truth is ``_ids``, a contiguous numpy-backed sorted id array, and
    ``_nodes`` holds only the *materialized* subset — nodes that have
    been routed a write, probed, or individually mutated.  A member
    absent from ``_nodes`` is an implicitly-alive node with an empty
    store; :meth:`node` materializes it on first touch.  Building an
    N=10^6 ring therefore allocates one 8 MB array, not 10^6 Python
    objects.
    """

    def __init__(self, space: IdSpace, trace: bool = False) -> None:
        self.space = space
        #: ``space.size - 1``: wrapping and range-checking ids via the
        #: mask keeps the routing loops free of property lookups.
        self._size_mask = space.size - 1
        #: Materialized nodes only; membership truth lives in ``_ids``.
        self._nodes: dict[int, Node] = {}
        #: Sorted ids of all live members (numpy-backed).
        self._ids: SortedIdArray = SortedIdArray(bits=space.bits)
        #: Moves on every store write, membership change and liveness
        #: change here; every node this DHT materializes shares it.
        self.stamp = Stamp()
        #: Whether operations record per-hop ``nodes_visited`` lists.
        #: Off by default: the counters (hops/messages/bytes) are always
        #: kept, but the per-hop list append in the innermost routing
        #: loop is skipped unless a caller opts in (path-inspection
        #: tests, equivalence checks).
        self.trace = trace
        #: Per-node access counter (routing + storage + probes).
        self.load = LoadTracker()
        #: Optional application hook merging two store values for the same
        #: key during a graceful leave: ``merge(existing, incoming)`` with
        #: ``existing`` possibly ``None``.  Defaults to max-wins.
        self.store_merge: Optional[
            Callable[[Optional[StoreValue], StoreValue], StoreValue]
        ] = None
        #: Optional fault-injection layer (see :mod:`repro.overlay.faults`).
        #: When installed, routing consults it for transient
        #: unresponsiveness and it can veto the eviction of nodes that
        #: merely timed out.  With ``None`` (the default, a bare ring)
        #: :meth:`node_responsive` is exactly :meth:`is_alive` and
        #: :meth:`timeout_repair` exactly :meth:`repair`.
        self.fault_layer: Optional["FaultHooks"] = None
        #: Memo of the routing contacts a geometry derives from the
        #: membership (Kademlia buckets, Pastry cells; Chord derives
        #: none).  A contact is a seeded draw over a membership range,
        #: so any join or leave can stale any entry: the three
        #: membership mutators clear it, and nothing else does.
        self._contact_cache: dict[Tuple[int, ...], Optional[int]] = {}
        #: Memo of :meth:`interval_reach` per ``(lo, hi)``; a function of
        #: ``_ids`` alone, cleared with the contact memo.
        self._reach_cache: dict[Tuple[int, int], frozenset[int]] = {}
        #: Chord's route memo: ``(origin, owner)`` -> the nodes a lookup
        #: hops through, or ``None`` for a pair seen once (see
        #: :meth:`ChordRing.lookup`).  A route is a function of the
        #: membership and of which members are alive, so the membership
        #: mutators and :meth:`mark_failed` clear it wholesale.
        self._route_cache: dict[Tuple[int, int], Optional[Tuple[int, ...]]] = {}

    @staticmethod
    def _draw_ids(n_nodes: int, bits: int, seed: int, label: str) -> set[int]:
        """``n_nodes`` distinct pseudo-random ids of a ``bits``-bit space.

        The one ring-id draw behind every ``build``: golden fixtures pin
        the ``rng_for(seed, label)`` stream, so rejected duplicates must
        keep consuming it exactly as they always have.
        """
        if n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {n_nodes}")
        space = IdSpace(bits)
        if n_nodes > space.size:
            raise ConfigurationError(
                f"cannot place {n_nodes} nodes in a {bits}-bit id space"
            )
        rng = rng_for(seed, label)
        seen: set[int] = set()
        while len(seen) < n_nodes:
            seen.add(rng.randrange(space.size))
        return seen

    # ------------------------------------------------------------------
    # Membership.
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of live nodes."""
        return len(self._ids)

    def node_ids(self) -> Sequence[int]:
        """Sorted ids of the live nodes (do not mutate)."""
        return self._ids

    def responsive_node_ids(self) -> List[int]:
        """Sorted ids of the live nodes that would answer right now.

        The maintenance plane iterates this instead of :meth:`node_ids`:
        background rounds can only run on nodes reachable through the
        current fault state (partitioned peers rejoin the schedule when
        the outage lifts).
        """
        fault = self.fault_layer
        nodes = self._nodes
        out: List[int] = []
        for nid in self._ids:
            node = nodes.get(nid)
            if node is not None and not node.alive:
                continue  # unmaterialized members are alive by invariant
            if fault is not None and not fault.responsive(nid):
                continue
            out.append(nid)
        return out

    def node(self, node_id: int) -> Node:
        """The :class:`Node` for ``node_id``; raises if unknown/dead.

        Materializes the node on first touch: an unmaterialized member
        is an alive node with an empty store.
        """
        node = self._nodes.get(node_id)
        if node is not None:
            return node
        if node_id in self._ids:
            node = Node(node_id, self.stamp)
            self._nodes[node_id] = node
            return node
        raise NodeNotFoundError(node_id)

    def node_if_materialized(self, node_id: int) -> Optional[Node]:
        """The :class:`Node` if it has been materialized, else ``None``.

        Load-balance snapshots use this to read per-node storage without
        allocating Node objects for the (empty) untouched members.
        """
        return self._nodes.get(node_id)

    def nodes_changed_since(self, value: int) -> List[Node]:
        """The materialized nodes whose store changed after stamp ``value``.

        One pass over the materialized nodes, reading each one's
        ``changed`` mark; a member never materialized has an empty store
        that never changed.
        """
        return [node for node in self._nodes.values() if node.changed > value]

    def has_node(self, node_id: int) -> bool:
        """Whether ``node_id`` is a live member."""
        return node_id in self._ids

    def membership_nbytes(self) -> int:
        """Bytes held by the membership id array (capacity included)."""
        return self._ids.nbytes

    def add_node(self, node_id: int) -> Node:
        """Join a new (empty) node under ``node_id``."""
        node_id = self.space.wrap(node_id)
        if node_id in self._ids:
            raise ValueError(f"node id {node_id:#x} already present")
        node = Node(node_id, self.stamp)
        self._nodes[node_id] = node
        self._ids.insert(node_id)
        self._membership_changed()
        return node

    def add_nodes_bulk(self, node_ids: Iterable[int]) -> None:
        """Join many (empty) nodes in one vectorized membership merge.

        The bulk construction path: no Node objects are materialized and
        the sorted id array is rebuilt with a single sort instead of one
        binary-insertion shift per join.  Raises ``ValueError`` on any
        duplicate id, leaving membership unchanged.
        """
        wrapped = [self.space.wrap(node_id) for node_id in node_ids]
        self._ids.merge(wrapped)
        self._membership_changed()

    def remove_node(self, node_id: int, graceful: bool = True) -> None:
        """Remove a node.

        ``graceful=True`` models a *leave*: stored entries are merged into
        the clockwise successor (newer/larger values win, matching DHS
        soft-state expiries).  ``graceful=False`` models a *crash*: the
        node's data is lost — the case the replication machinery exists
        for.
        """
        if node_id not in self._ids:
            raise NodeNotFoundError(node_id)
        node = self._nodes.pop(node_id, None)
        self._ids.remove(node_id)
        self._membership_changed()
        if node is None:
            # Never materialized: empty store, no live references —
            # nothing to merge and no alive flag anyone can observe.
            return
        node.alive = False
        if graceful and self._ids:
            heir = self.node(self.successor_id(node_id))
            for key, value in node.store.items():
                existing = heir.store.get(key)
                if self.store_merge is not None:
                    heir.store[key] = self.store_merge(existing, value)
                elif existing is None:
                    heir.store[key] = value
                else:
                    try:
                        heir.store[key] = max(cast(Any, existing), cast(Any, value))
                    except TypeError:
                        heir.store[key] = value
            if node.store:
                store_changed(heir)

    def fail_node(self, node_id: int) -> None:
        """Crash ``node_id`` (data lost)."""
        self.remove_node(node_id, graceful=False)

    def mark_failed(self, node_id: int) -> None:
        """Crash ``node_id`` *without* the overlay noticing (lazy failure).

        The node stays in everyone's routing state; lookups discover the
        crash on contact, pay a timeout hop, and repair (section 3.5's
        ``p_f`` model).  Its stored data is lost either way.
        """
        self.node(node_id).alive = False
        self._route_cache.clear()
        self.stamp.value += 1
        self.stamp.membership += 1

    def is_alive(self, node_id: int) -> bool:
        """Whether ``node_id`` is present and not lazily failed.

        One dict probe for materialized nodes; unmaterialized members
        are alive by invariant (only :meth:`mark_failed` flips the flag,
        and it materializes), so the fallback is a membership search.
        """
        node = self._nodes.get(node_id)
        if node is not None:
            return node.alive
        return node_id in self._ids

    def live_node(self, node_id: int) -> Optional[Node]:
        """The :class:`Node` for ``node_id`` if present and alive, else ``None``.

        Fuses :meth:`is_alive` + :meth:`node` into one dict probe: how
        the counting walk contacts a node when no fault layer is
        installed (:meth:`node_responsive` is then :meth:`is_alive`).
        Unmaterialized members materialize on demand.
        """
        node = self._nodes.get(node_id)
        if node is not None:
            return node if node.alive else None
        if node_id in self._ids:
            node = Node(node_id, self.stamp)
            self._nodes[node_id] = node
            return node
        return None

    def repair(self, node_id: int) -> None:
        """Evict a discovered-dead node from the routing state."""
        if node_id in self._ids:
            self.remove_node(node_id, graceful=False)

    # ------------------------------------------------------------------
    # Fault-layer indirection (routing-time liveness and eviction).
    # ------------------------------------------------------------------
    def node_responsive(self, node_id: int) -> bool:
        """Whether ``node_id`` would answer a message right now.

        Differs from :meth:`is_alive` only when a fault layer is
        installed: a transiently-unresponsive (or partitioned) node is
        alive but does not answer, so routing pays a timeout hop without
        the node having crashed.
        """
        fault = self.fault_layer
        if fault is None:
            return self.is_alive(node_id)
        return self.is_alive(node_id) and fault.responsive(node_id)

    def timeout_repair(self, node_id: int) -> None:
        """Evict a node that timed out during routing.

        The fault layer can veto the eviction: a transient outage looks
        like a crash to the router, but evicting the node would lose its
        (still intact) membership permanently.
        """
        fault = self.fault_layer
        if fault is not None and fault.veto_eviction(node_id):
            return
        self.repair(node_id)

    def _next_responsive(self, node_id: int, cost: OpCost) -> int:
        """First responsive node clockwise of ``node_id``.

        Walks the successor chain the way a router consults a successor
        list whose leading entries are down: one timeout hop is charged
        per unresponsive node tried, and each corpse is offered for
        eviction (the fault layer vetoes transient outages).
        """
        budget = len(self._ids) + 1
        current = node_id
        for _ in range(budget):
            candidate = self.successor_id(current)
            if self.node_responsive(candidate):
                return candidate
            cost.hops += 1
            cost.messages += 1
            cost.timeouts += 1
            if obs.METERING:
                obs.METRICS.inc("dht.timeouts")
            self.timeout_repair(candidate)
            current = candidate
        raise LookupFailedError("no responsive node reachable on the ring")

    def _membership_changed(self) -> None:
        """Drop the memos derived from ``_ids`` (contacts, interval reach,
        routes) and move the change stamp and its membership counter."""
        self.stamp.value += 1
        self.stamp.membership += 1
        self._contact_cache.clear()
        self._reach_cache.clear()
        self._route_cache.clear()

    # ------------------------------------------------------------------
    # Geometry.
    # ------------------------------------------------------------------
    @abstractmethod
    def owner_of(self, key: int) -> int:
        """Id of the node responsible for ``key`` (ground truth)."""

    @abstractmethod
    def lookup(self, key: int, origin: Optional[int] = None) -> LookupResult:
        """Route ``key`` from ``origin`` to its owner, counting hops."""

    def _route(
        self,
        key: int,
        origin: Optional[int],
        next_hop: Callable[[int, int, int], int],
    ) -> LookupResult:
        """Route ``key`` to its owner over a geometry's ``next_hop``.

        ``next_hop(current, target, destination)`` names the node
        ``current`` forwards to on the way to ``target``; everything a
        hop can run into — a dead or unresponsive owner, a timed-out
        contact, a vetoed eviction — is handled here, identically for
        every geometry that routes through this loop.

        The destination is asked whether it answers before the first
        hop, and again only after a branch re-resolved it: a contact's
        eviction moves no owner, and liveness does not change inside a
        lookup.  ``next_hop`` answers with a member, so a clean hop's
        liveness is one ``_nodes`` probe (an unmaterialized member is
        alive), plus ``fault.responsive`` when a fault layer is
        installed.  The visited nodes, origin first, are one list,
        charged to ``load`` with one ``record_path`` — also when the
        route raises — and ``hops``/``messages`` are its length plus the
        timeouts.
        """
        if not self._ids:
            raise EmptyOverlayError("overlay has no live nodes")
        key &= self._size_mask
        if origin is None:
            origin = self._ids[0]
        elif not 0 <= origin <= self._size_mask:
            raise ValueError(f"origin {origin} is outside the {self.space.bits}-bit id space")
        nodes = self._nodes
        fault = self.fault_layer
        current = origin
        path = [origin]
        # Only timeouts charge ``cost.hops`` inside the loop: the routed
        # hops are ``len(path) - 1``, added once at the end.
        cost = OpCost(nodes_visited=path if self.trace else [], lookups=1)
        max_visits = 4 * self.space.bits + 1
        try:
            destination = self.owner_of(key)
            #: Routing goal: the key itself, unless a vetoed-eviction
            #: fallback re-pins the destination to a nearby responsive
            #: node — routing then converges on that node's own id.
            target = key
            resolved = False
            while True:
                if not resolved:
                    if not self.node_responsive(destination):
                        cost.hops += 1
                        cost.messages += 1
                        cost.timeouts += 1
                        self.timeout_repair(destination)
                        if self.has_node(destination):
                            # Eviction vetoed (transient outage): settle
                            # on the first responsive ring neighbour and
                            # route to it.
                            destination = self._next_responsive(destination, cost)
                            target = destination
                        else:
                            destination = self.owner_of(key)
                        continue
                    resolved = True
                if current == destination:
                    break
                nxt = next_hop(current, target, destination)
                node = nodes.get(nxt)
                if (node is None or node.alive) and (fault is None or fault.responsive(nxt)):
                    current = nxt
                    path.append(nxt)
                    if len(path) + cost.hops > max_visits:
                        raise RuntimeError("routing failed to converge")
                    continue
                cost.hops += 1
                cost.messages += 1
                cost.timeouts += 1
                self.timeout_repair(nxt)
                if self.has_node(nxt):
                    # Eviction vetoed: the contact stays in the routing
                    # state and would be picked again, so skip it and
                    # hop straight to the (responsive) destination.
                    current = destination
                    path.append(current)
        finally:
            self.load.record_path(path)
        routed = len(path) - 1
        cost.hops += routed
        cost.messages += routed
        if obs.METERING:
            obs.METRICS.observe("dhs.lookup.hops", cost.hops)
        return LookupResult(node_id=destination, cost=cost)

    def successor_id(self, node_id: int) -> int:
        """Clockwise ring neighbour of ``node_id`` (numeric order)."""
        if not self._ids:
            raise EmptyOverlayError("overlay has no live nodes")
        return self._ids.first_at_or_after(node_id + 1)

    def predecessor_id(self, node_id: int) -> int:
        """Counter-clockwise ring neighbour of ``node_id``."""
        if not self._ids:
            raise EmptyOverlayError("overlay has no live nodes")
        return self._ids.last_before(node_id)

    def interval_owners(self, lo: int, hi: int, start: int) -> Iterator[int]:
        """The nodes that can hold keys of ``[lo, hi)``, nearest first.

        Algorithm 1's walk order from ``start`` (where a lookup of an
        interval key landed): ``start``, its successors inside the
        interval, the one overflow owner past its top (keys above the
        last in-interval node belong to it), then ``start``'s
        predecessors inside it; no node twice.  Lazy on purpose: each
        step bisects the membership as it is when the next node is asked
        for, so a node the caller evicts mid-walk is walked past.
        """
        seen = {start}
        yield start
        if lo <= start < hi:
            cursor = start
            while True:
                cursor = self.successor_id(cursor)
                if cursor in seen:
                    break
                seen.add(cursor)
                yield cursor
                if not lo <= cursor < hi:
                    break  # the overflow owner ends the successor run
        cursor = start
        while True:
            cursor = self.predecessor_id(cursor)
            if cursor in seen or not lo <= cursor < hi:
                return
            seen.add(cursor)
            yield cursor

    def interval_reach(self, lo: int, hi: int) -> frozenset[int]:
        """Every node the counting walk of ``[lo, hi)`` can read.

        The :meth:`interval_owners` walk from the owner of the interval's
        top key, memoised until the membership next changes.  Repair
        sweeps ask it whether a bit's holder is visible to counts.
        """
        reach = self._reach_cache.get((lo, hi))
        if reach is None:
            reach = self._reach_cache[lo, hi] = frozenset(
                self.interval_owners(lo, hi, self.owner_of(hi - 1))
            )
        return reach

    # ------------------------------------------------------------------
    # Storage primitives.
    # ------------------------------------------------------------------
    def store(
        self,
        key: int,
        write: Callable[[Node], None],
        origin: Optional[int] = None,
        payload_bytes: int = 8,
    ) -> Tuple[int, OpCost]:
        """Route to the owner of ``key`` and apply ``write`` to its store.

        Returns the storing node id and the operation cost (payload
        carried on every routed hop, matching the paper's accounting).
        """
        result = self.lookup(key, origin=origin)
        node = self.node(result.node_id)
        write(node)
        self.load.record(result.node_id)
        cost = result.cost
        cost.bytes += max(0, result.cost.hops) * payload_bytes
        if obs.METERING:
            obs.METRICS.inc("dht.stores")
        return result.node_id, cost

    def probe(
        self,
        node_id: int,
        read: Callable[[Node], Any],
    ) -> Any:
        """Read from a specific node's store (no routing — caller pays)."""
        node = self.node(node_id)
        self.load.record(node_id)
        if obs.METERING:
            obs.METRICS.inc("dht.probes")
        return read(node)

    def random_live_node(self, rng: random.Random) -> int:
        """A uniformly random live (not lazily-failed) node id."""
        ids = self._ids.buffer
        if not ids:
            raise EmptyOverlayError("overlay has no live nodes")
        for _ in range(64):
            candidate = rng.choice(ids)
            node = self._nodes.get(candidate)  # None: not materialized, so alive
            if node is None or node.alive:
                return candidate
        survivors = [node_id for node_id in self._ids if self.is_alive(node_id)]
        if not survivors:
            raise EmptyOverlayError("every node is (lazily) failed")
        return rng.choice(survivors)
