"""Deterministic, logical-clock-scripted fault injection.

The paper's fault model (§3.5, §4.1) is richer than crash-stop: nodes
fail *undetected* with probability ``p_f``, lookups discover corpses on
contact and pay timeout hops, and replication degree ``R`` drives the
probability of losing a stored bit to ``p_f^R``.  This module scripts
those scenarios — plus the classic systems failure modes the paper's
analysis abstracts over — against any :class:`~repro.overlay.dht.DHTProtocol`:

``lazy_crash``
    Today's ``mark_failed``: the node dies silently, stays in everyone's
    routing state, and is discovered (and evicted) on contact.
``crash``
    Eager crash-stop: the node leaves the membership immediately, data
    lost (``fail_node``).
``amnesia``
    Crash-with-amnesia rejoin: the node lazily crashes at ``at`` and
    returns ``duration`` ticks later with an *empty* store — the
    soft-state refresh / repair machinery has to repopulate it.
``transient``
    The node is unreachable for ``duration`` ticks and then answers
    again with its store intact.  Routing pays timeout hops but must
    *not* evict it permanently.
``partition``
    A set of nodes becomes unreachable together for ``duration`` ticks.
    Modelled as group transient unresponsiveness — the observer is
    always on the majority side (a deliberate simplification, see
    docs/ROBUSTNESS.md).

Everything is scheduled on a *logical clock* (``advance_to`` / ``tick``)
and every random choice — victim sampling, per-message drops — flows
through :func:`~repro.sim.seeds.rng_for` label paths, so a faulty run is
bit-identical at any ``DHS_JOBS`` parallelism.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError, MessageDropped
from repro.obs import runtime as obs
from repro.overlay.dht import DHTProtocol, FaultHooks, LookupResult
from repro.overlay.node import Node, store_changed
from repro.overlay.stats import OpCost
from repro.sim.seeds import rng_for

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultPlan", "FaultInjector"]

#: The scripted fault kinds (see the module docstring).
FAULT_KINDS = ("lazy_crash", "crash", "amnesia", "transient", "partition")

#: Kinds whose effect ends after ``duration`` ticks.
_TIMED_KINDS = frozenset({"amnesia", "transient", "partition"})


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault, applied when the logical clock reaches ``at``.

    Victims are either explicit (``node_ids``) or sampled from the live
    membership at apply time (``fraction`` of it, at least one node)
    using a seed derived from the event's position in the plan.
    """

    kind: str
    at: int
    node_ids: Tuple[int, ...] = ()
    fraction: float = 0.0
    duration: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.at < 0:
            raise ConfigurationError(f"fault time must be >= 0, got {self.at}")
        if bool(self.node_ids) == (self.fraction > 0.0):
            raise ConfigurationError(
                "exactly one of node_ids / fraction must select the victims"
            )
        if not 0.0 <= self.fraction < 1.0:
            raise ConfigurationError(
                f"fraction must be in [0, 1), got {self.fraction}"
            )
        if self.kind in _TIMED_KINDS and self.duration <= 0:
            raise ConfigurationError(
                f"{self.kind} faults need a positive duration"
            )
        if self.kind not in _TIMED_KINDS and self.duration != 0:
            raise ConfigurationError(
                f"{self.kind} faults are permanent; duration must be 0"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A full fault script: scheduled events plus an ambient drop rate.

    ``drop_probability`` loses each routed message (lookup / store /
    probe) independently with that probability, from logical tick
    ``drop_from`` onwards — keeping population (tick 0) lossless while
    the counting phase is lossy is the common experiment shape.

    The default-constructed plan is empty and guaranteed side-effect
    free: no RNG stream is even created, so wrapping a ring in an
    injector with an empty plan leaves every run bit-identical to the
    bare ring.
    """

    drop_probability: float = 0.0
    drop_from: int = 0
    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability < 1.0:
            raise ConfigurationError(
                f"drop_probability must be in [0, 1), got {self.drop_probability}"
            )
        if self.drop_from < 0:
            raise ConfigurationError(
                f"drop_from must be >= 0, got {self.drop_from}"
            )

    @classmethod
    def empty(cls) -> "FaultPlan":
        """The no-fault plan (bit-identical passthrough)."""
        return cls()

    @property
    def is_empty(self) -> bool:
        """Whether this plan can never perturb an operation."""
        return self.drop_probability == 0.0 and not self.events


class FaultInjector(DHTProtocol, FaultHooks):
    """Wrap a DHT, injecting the faults scripted by a :class:`FaultPlan`.

    The injector *is* a :class:`DHTProtocol`: DHS cores and experiment
    drivers use it wherever they would use the bare overlay.  Membership
    state (``_nodes`` / ``_ids`` / load tracker) is shared with the
    wrapped overlay by reference; every membership mutation and every
    geometry question (``owner_of``, ``interval_owners``,
    ``interval_reach``) is delegated to it, so its caches (contacts,
    interval reach) stay correct and its answers hold under faults.  The
    injector also installs itself as the overlay's ``fault_layer``,
    which is how routing learns about transient unresponsiveness and why
    timed-out transient nodes are not permanently evicted.
    """

    def __init__(self, inner: DHTProtocol, plan: FaultPlan, seed: int = 0) -> None:
        if inner.fault_layer is not None:
            raise ConfigurationError("overlay already has a fault layer installed")
        self.inner = inner
        merge = inner.store_merge
        super().__init__(inner.space, trace=inner.trace)
        # Share membership and accounting with the wrapped overlay.
        self._nodes = inner._nodes
        self._ids = inner._ids
        self.stamp = inner.stamp
        self.load = inner.load
        self.store_merge = merge
        self.plan = plan
        self.seed = seed
        #: Logical clock; advanced explicitly by the experiment driver.
        self.clock = 0
        #: Messages lost to ``drop_probability`` so far.
        self.dropped_messages = 0
        #: node id -> tick at which it answers again (transient faults).
        self._down_until: Dict[int, int] = {}
        #: Heap of the ticks at which an outage ends.
        self._outage_ends: List[int] = []
        #: rejoin tick -> amnesiac node ids returning (empty) then.
        self._rejoins: Dict[int, List[int]] = {}
        self._events: Tuple[FaultEvent, ...] = tuple(
            sorted(plan.events, key=lambda e: e.at)
        )
        self._next_event = 0
        # Created only when drops can happen: an empty plan must not
        # even allocate an RNG stream (bit-identity with the bare ring).
        self._drop_rng = (
            rng_for(seed, "faults", "drops")
            if plan.drop_probability > 0.0
            else None
        )
        inner.fault_layer = self
        self.fault_layer = self
        self.advance_to(0)

    # ------------------------------------------------------------------
    # Logical clock.
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Advance the logical clock by one tick."""
        self.advance_to(self.clock + 1)

    def advance_to(self, now: int) -> None:
        """Advance the clock to ``now``, applying every due fault/rejoin.

        Same-tick ordering is fixed (rejoins before new events) so plans
        replay identically regardless of how the driver batches time.
        """
        if now < self.clock:
            raise ConfigurationError(
                f"logical clock cannot run backwards ({self.clock} -> {now})"
            )
        # Who answers is a function of the clock: the stamp moves.  Its
        # membership counter moves only if this step applies something.
        self.stamp.value += 1
        applied = False
        events = self._events
        while True:
            rejoin_t = min(self._rejoins) if self._rejoins else None
            event_t = (
                events[self._next_event].at
                if self._next_event < len(events)
                else None
            )
            due = [t for t in (rejoin_t, event_t) if t is not None and t <= now]
            if not due:
                break
            t = min(due)
            self.clock = t
            applied = True
            if rejoin_t == t:
                for node_id in self._rejoins.pop(t):
                    self._rejoin(node_id)
            while self._next_event < len(events) and events[self._next_event].at == t:
                self._apply_event(self._next_event)
                self._next_event += 1
        self.clock = now
        ends = self._outage_ends
        while ends and ends[0] <= now:
            heapq.heappop(ends)
            applied = True
        if applied:
            self.stamp.membership += 1

    def _victims(self, index: int) -> List[int]:
        event = self._events[index]
        if event.node_ids:
            return [self.space.wrap(n) for n in event.node_ids]
        pool = [node_id for node_id in self._ids if self.is_alive(node_id)]
        if not pool:
            return []
        k = min(len(pool), max(1, round(event.fraction * len(pool))))
        rng = rng_for(self.seed, "faults", "victims", index)
        return sorted(rng.sample(pool, k))

    def _apply_event(self, index: int) -> None:
        event = self._events[index]
        victims = self._victims(index)
        if obs.TRACING:
            obs.TRACER.event(
                f"fault.{event.kind}",
                tick=event.at,
                victims=len(victims),
                duration=event.duration,
            )
        if obs.METERING:
            obs.METRICS.inc("dhs.faults.events")
            obs.METRICS.inc("dhs.faults.victims", len(victims))
        if event.kind == "crash":
            for node_id in victims:
                if self.has_node(node_id):
                    self.inner.fail_node(node_id)
        elif event.kind == "lazy_crash":
            for node_id in victims:
                if self.has_node(node_id):
                    self.inner.mark_failed(node_id)
        elif event.kind == "amnesia":
            back_at = event.at + event.duration
            for node_id in victims:
                if self.has_node(node_id):
                    self.inner.mark_failed(node_id)
                    self._rejoins.setdefault(back_at, []).append(node_id)
        else:  # transient / partition: unreachable, store intact.
            until = event.at + event.duration
            for node_id in victims:
                self._down_until[node_id] = max(
                    self._down_until.get(node_id, 0), until
                )
            heapq.heappush(self._outage_ends, until)

    def _rejoin(self, node_id: int) -> None:
        """An amnesiac node returns with an empty store."""
        if obs.TRACING:
            obs.TRACER.event("fault.rejoin", tick=self.clock, node=node_id)
        if self.has_node(node_id):
            # ``node()`` materializes on demand: an amnesia victim was
            # marked failed (hence materialized), but be robust anyway.
            node = self.node(node_id)
            node.store.clear()
            store_changed(node)
            node.alive = True
        else:
            # Evicted while down (a lookup discovered the corpse):
            # rejoin as a brand-new empty member.
            self.inner.add_node(node_id)

    # ------------------------------------------------------------------
    # FaultHooks (consulted by the wrapped overlay while routing).
    # ------------------------------------------------------------------
    def responsive(self, node_id: int) -> bool:
        return self._down_until.get(node_id, 0) <= self.clock

    def veto_eviction(self, node_id: int) -> bool:
        return self._down_until.get(node_id, 0) > self.clock

    # ------------------------------------------------------------------
    # Message drops.
    # ------------------------------------------------------------------
    def _maybe_drop(self, operation: str) -> None:
        rng = self._drop_rng
        if rng is None or self.clock < self.plan.drop_from:
            return
        if rng.random() < self.plan.drop_probability:
            self.dropped_messages += 1
            if obs.METERING:
                obs.METRICS.inc("dhs.faults.dropped_messages")
            if obs.TRACING:
                obs.TRACER.event("msg.dropped_by_fault", tick=self.clock, op=operation)
            raise MessageDropped(operation)

    # ------------------------------------------------------------------
    # DHTProtocol surface (delegated; membership mutations go through
    # the wrapped overlay so its contact-cache resets run).
    # ------------------------------------------------------------------
    def owner_of(self, key: int) -> int:
        return self.inner.owner_of(key)

    def interval_owners(self, lo: int, hi: int, start: int) -> Iterator[int]:
        return self.inner.interval_owners(lo, hi, start)

    def interval_reach(self, lo: int, hi: int) -> frozenset[int]:
        return self.inner.interval_reach(lo, hi)

    def lookup(self, key: int, origin: Optional[int] = None) -> LookupResult:
        self._maybe_drop("lookup")
        return self.inner.lookup(key, origin=origin)

    def store(
        self,
        key: int,
        write: Callable[[Node], None],
        origin: Optional[int] = None,
        payload_bytes: int = 8,
    ) -> Tuple[int, OpCost]:
        self._maybe_drop("store")
        return self.inner.store(
            key, write, origin=origin, payload_bytes=payload_bytes
        )

    def probe(self, node_id: int, read: Callable[[Node], Any]) -> Any:
        self._maybe_drop("probe")
        return self.inner.probe(node_id, read)

    def add_node(self, node_id: int) -> Node:
        return self.inner.add_node(node_id)

    def add_nodes_bulk(self, node_ids: Iterable[int]) -> None:
        self.inner.add_nodes_bulk(node_ids)

    def remove_node(self, node_id: int, graceful: bool = True) -> None:
        # A caller may have set ``store_merge`` on the injector; the
        # graceful-leave merge runs inside the wrapped overlay.
        self.inner.store_merge = self.store_merge
        self.inner.remove_node(node_id, graceful=graceful)

    def mark_failed(self, node_id: int) -> None:
        self.inner.mark_failed(node_id)

    def repair(self, node_id: int) -> None:
        self.inner.repair(node_id)
