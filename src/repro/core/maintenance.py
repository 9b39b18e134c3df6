"""Soft-state maintenance (paper section 3.3).

DHS deletion is implicit: every stored bit carries a time-out, and a bit
that is not refreshed within its TTL ages out — so deleting items costs
nothing.  Data owners periodically re-insert (refresh) their live items;
the TTL choice trades maintenance bandwidth against adaptation speed to
fluctuations, exactly the trade-off the paper discusses.

Time is a logical integer clock owned by the caller (the simulation
kit); nothing here reads wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, Iterable, Optional

import numpy as np

from repro.core.insert import Inserter
from repro.core.mapping import BitIntervalMap
from repro.core.tuples import purge_expired, write_entry
from repro.overlay.antientropy import AntiEntropyStats, antientropy_round
from repro.overlay.dht import DHTProtocol
from repro.overlay.messages import DEFAULT_SIZE_MODEL, SizeModel
from repro.overlay.node import Node
from repro.overlay.replication import ChainView
from repro.overlay.stats import OpCost
from repro.sim.seeds import rng_for

if TYPE_CHECKING:  # annotation only — the facade imports this module
    from repro.core.regstore import RegArena
    import random

    from repro.core.dhs import DistributedHashSketch

__all__ = [
    "MaintenanceConfig",
    "MaintenanceReport",
    "MaintenanceScheduler",
    "antientropy_sweep",
    "refresh",
    "replica_divergence",
    "sweep_expired",
]


def refresh(
    inserter: Inserter,
    metric_id: Hashable,
    items: Iterable[Any],
    origin: Optional[int] = None,
    now: int = 0,
) -> OpCost:
    """Re-insert (refresh) live items, resetting their time-outs.

    Refreshing is literally re-insertion: matching entries get their
    expiry bumped, missing ones are re-created (e.g. after a crash).
    An ndarray of item ids takes the vectorized
    :meth:`~repro.core.insert.Inserter.insert_array` lane — bit- and
    cost-identical to the scalar bulk path (both draw target keys from
    the same per-interval RNG stream and store the same deduplicated
    tuples), just hashed in one numpy pass.
    """
    if isinstance(items, np.ndarray):
        return inserter.insert_array(metric_id, items, origin=origin, now=now)
    return inserter.insert_bulk(metric_id, items, origin=origin, now=now)


def sweep_expired(dht: DHTProtocol, now: int) -> int:
    """Purge expired entries from every live node; returns entries freed.

    In a real deployment each node sweeps its own store locally; the
    simulation does it in one pass.  Counting already ignores expired
    entries, so sweeping only reclaims storage.
    """
    removed = 0
    for node_id in dht.node_ids():
        node = dht.node_if_materialized(node_id)
        if node is not None:  # a member never materialized stores nothing
            removed += purge_expired(node, now)
    return removed


def antientropy_sweep(
    dht: DHTProtocol,
    replication: int,
    now: int = 0,
    *,
    mapping: BitIntervalMap,
    size_model: Optional[SizeModel] = None,
    arena: Optional["RegArena"] = None,
    sample: Optional[int] = None,
    rng: Optional["random.Random"] = None,
    view: Optional[ChainView] = None,
) -> AntiEntropyStats:
    """One proactive anti-entropy round (digest exchange + OR-merge).

    This is the core-side glue for
    :func:`repro.overlay.antientropy.antientropy_round`: the overlay
    module cannot import the interval geometry or the store writer
    (layering), so both are injected here as closures — walk visibility
    is the overlay's memoised ``interval_reach`` of each bit's interval,
    folded once per round into a bitmask of positions per node
    (unstored positions are seen everywhere), segments are the
    bit→interval mapping, and writes land on the deployment's storage
    backend via ``arena``.
    This round is the only background healer: it re-covers replica
    chains and brings bits the walk cannot read back to a chain peer it
    can (homecoming).
    A no-op (empty stats) when replication is disabled: with no chains
    there is nothing to reconcile, and pushing copies would manufacture
    replication the configuration never asked for.

    The round runs on ``view`` when given (a fresh ``ChainView(dht,
    now)`` the caller keeps), else on one built here.  The round
    refreshes the view at every write, so afterwards it equals a fresh
    scan: the facade hands it to the divergence gauge that follows
    (:func:`replica_divergence`).
    """
    if replication <= 0:
        return AntiEntropyStats()
    model = size_model if size_model is not None else DEFAULT_SIZE_MODEL

    # Per node, the positions whose counting walk reads it: the reach
    # of each stored position's interval, plus the never-stored
    # positions, which every node sees.
    everywhere = 0
    reads: Dict[int, int] = {}
    for bit in range(mapping.config.position_bits):
        if not mapping.is_stored(bit):
            everywhere |= 1 << bit
            continue
        for node_id in dht.interval_reach(*mapping.interval_for_position(bit)):
            reads[node_id] = reads.get(node_id, 0) | 1 << bit

    def visible(node_id: int) -> int:
        return everywhere | reads.get(node_id, 0)

    def segment_of(bit: int) -> int:
        return mapping.interval_index(bit) if mapping.is_stored(bit) else -1

    def write_fn(
        node: Node, metric: Hashable, vector: int, bit: int, expiry: Optional[int]
    ) -> None:
        write_entry(node, metric, vector, bit, expiry, arena=arena)

    return antientropy_round(
        view if view is not None else ChainView(dht, now),
        replication,
        model=model,
        visible=visible,
        segment_of=segment_of,
        write_fn=write_fn,
        rng=rng,
        sample=sample,
    )


def replica_divergence(
    dht: DHTProtocol,
    replication: int,
    now: int = 0,
    view: Optional[ChainView] = None,
) -> int:
    """Total replica-chain divergence, in missing (node, entry) copies.

    For every responsive node, the live bits it is primary for (none of
    its ``replication`` responsive predecessors hold them) should be
    present on each of its ``replication`` responsive chain successors;
    every absence counts one.  Zero in a converged network — insert-time
    replication covers chains, so no-fault runs sit at zero — and the
    soak experiment's central gauge: after a fault it spikes, and
    bounded anti-entropy rounds must drive it back to zero.

    ``view``, when given, is the view of the anti-entropy round that
    ran just before, still exact: asked at the same ``now``, with the
    deployment's change stamp where it was after the round's last
    write (no store write, join, leave, crash or fault-clock step
    since).  The gauge then pays only for its popcounts and for packing
    the nodes a sampled round skipped.  Without one, it packs every
    node into a fresh view.
    """
    if replication <= 0:
        return 0
    if view is None:
        view = ChainView(dht, now)
    view.pack(view.ids)  # the gauge reads every node: no int goes stale
    total = 0
    for node_id in view.ids:
        primary = view.primary(node_id, replication)
        for replica in view.successors(node_id, replication):
            total += (primary & ~view.packed(replica)).bit_count()
    return total


@dataclass(frozen=True)
class MaintenanceConfig:
    """Cadences for the background maintenance plane (logical ticks).

    ``None`` (or 0) disables a duty; an ``every`` of ``k`` fires on
    every tick divisible by ``k`` (including tick 0 — drivers that want
    a quiet warm-up start their clock at 1).  ``antientropy_sample``
    caps the number of initiator nodes per anti-entropy round; peer
    selection is then seeded per tick by the scheduler, keeping runs
    replayable.
    """

    refresh_every: Optional[int] = None
    sweep_every: Optional[int] = None
    antientropy_every: Optional[int] = None
    antientropy_sample: Optional[int] = None


@dataclass
class MaintenanceReport:
    """What one scheduler tick did."""

    tick: int
    cost: OpCost = field(default_factory=OpCost)
    refreshed: bool = False
    swept: int = 0
    antientropy: Optional[AntiEntropyStats] = None


class MaintenanceScheduler:
    """Deterministic maintenance driver on the logical clock.

    Interleaves the three background duties in a fixed order each tick —
    refresh, sweep, anti-entropy — so a run is a pure function of
    (initial state, fault plan, seed).  The refresh duty is a
    caller-supplied callback (only the data owners know which items are
    still live); the other two go through the
    :class:`~repro.core.dhs.DistributedHashSketch` facade.
    """

    def __init__(
        self,
        dhs: "DistributedHashSketch",
        config: MaintenanceConfig,
        seed: int = 0,
        refresh_fn: Optional[Callable[[int], OpCost]] = None,
    ) -> None:
        self.dhs = dhs
        self.config = config
        self.seed = seed
        self.refresh_fn = refresh_fn

    @staticmethod
    def _due(every: Optional[int], now: int) -> bool:
        return every is not None and every > 0 and now % every == 0

    def tick(self, now: int) -> MaintenanceReport:
        """Run every duty due at ``now``; returns what happened."""
        config = self.config
        report = MaintenanceReport(tick=now)
        if self.refresh_fn is not None and self._due(config.refresh_every, now):
            report.cost.add(self.refresh_fn(now))
            report.refreshed = True
        if self._due(config.sweep_every, now):
            report.swept = self.dhs.sweep_expired(now)
        if self._due(config.antientropy_every, now):
            sample = config.antientropy_sample or None
            rng = rng_for(self.seed, "antientropy", now) if sample else None
            stats = self.dhs.antientropy(now, sample=sample, rng=rng)
            report.antientropy = stats
            report.cost.add(stats.cost)
        return report
