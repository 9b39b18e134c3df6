"""DHS insertion (paper sections 3.2 and 3.4).

To record an item, compute its ``(vector, position)`` observation from
the k low-order bits of its hashed key, pick a *uniformly random* key
inside the id-space interval of that position, and store the DHS tuple
at the DHT node owning that key.  Choosing a fresh random key per write
is what spreads copies of the same logical bit over all the interval's
nodes — the redundancy the counting algorithm's probe phase relies on.

``insert_bulk`` implements the paper's batching observation: a node with
many items groups them by interval and contacts at most ``k`` nodes per
round, one per interval, instead of one per item.

There is one write path.  Every bulk entry point (``insert_bulk``,
``insert_array``, the experiment populators) ends in
``insert_observation_arrays``, which stores each interval's distinct
vectors as one bitmap; a per-item ``insert`` stores a one-bit bitmap
through the same ``_store_mask``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.core.config import DHSConfig
from repro.core.mapping import BitIntervalMap
from repro.core.policy import DEFAULT_POLICY, RetryPolicy
from repro.core.tuples import write_entry_mask
from repro.errors import MessageDropped
from repro.hashing.family import HashFamily
from repro.hashing.vectorized import observations_np, observations_u64
from repro.obs import runtime as obs
from repro.overlay.dht import DHTProtocol
from repro.overlay.node import Node
from repro.overlay.replication import replicate_to_successors
from repro.overlay.stats import OpCost
from repro.sim.seeds import rng_for
from repro.sketches.base import split_key

if TYPE_CHECKING:  # annotation only — the facade constructs the arena
    from repro.core.regstore import RegArena

__all__ = ["Inserter", "item_id_array"]


def item_id_array(item_ids: npt.ArrayLike) -> npt.NDArray[np.integer[Any]]:
    """``item_ids`` as an array, unconverted; ``ValueError`` unless 1-D integer.

    Never cast: an ``int64`` cast truncates ``1.5`` to item 1, reads
    ``True`` as item 1 and hashes a 2-D array's rows as something else.
    """
    ids = np.asarray(item_ids)
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise ValueError(
            "item ids must be a 1-D array of integers, "
            f"got dtype {ids.dtype} with shape {ids.shape}"
        )
    return ids


class Inserter:
    """Stateless-per-call insertion engine for one DHS deployment."""

    def __init__(
        self,
        dht: DHTProtocol,
        config: DHSConfig,
        mapping: BitIntervalMap,
        hash_family: HashFamily,
        seed: int = 0,
        policy: RetryPolicy = DEFAULT_POLICY,
        arena: Optional["RegArena"] = None,
    ) -> None:
        self.dht = dht
        self.config = config
        self.mapping = mapping
        self.hash_family = hash_family
        self.policy = policy
        #: Register arena backing fresh slots (``None`` = packed backend).
        self.arena = arena
        self._rng = rng_for(seed, "dhs-insert")

    # ------------------------------------------------------------------
    # Observations.
    # ------------------------------------------------------------------
    def observation(self, item: Any) -> Tuple[int, int]:
        """``(vector, position)`` of ``item``, clamped like the sketches."""
        vector, position = split_key(
            self.hash_family(item), self.config.num_bitmaps, self.config.key_bits
        )
        return vector, min(position, self.config.position_bits - 1)

    def observations(
        self, item_ids: npt.ArrayLike
    ) -> Tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        """``(vectors, positions)`` arrays of non-negative integer ids.

        The ``mixer`` family hashes the whole array at once with
        :func:`repro.hashing.vectorized.observations_np` (unsigned ids
        with :func:`~repro.hashing.vectorized.observations_u64`, so no
        ``uint64`` id at or above 2^63 wraps through ``int64``),
        bit-for-bit identical to :meth:`observation`; other families
        (MD4) have no vectorized twin and hash item by item.  Ids that
        are not a 1-D integer array raise ``ValueError`` (see
        :func:`item_id_array`).
        """
        config = self.config
        ids = item_id_array(item_ids)
        if config.hash_family_name != "mixer":
            return self._scalar_observations(ids.tolist())
        m, key_bits, seed = config.num_bitmaps, config.key_bits, config.hash_seed
        if ids.dtype.kind == "u":
            return observations_u64(ids.astype(np.uint64, copy=False), m, key_bits, seed)
        return observations_np(ids.astype(np.int64, copy=False), m, key_bits, seed)

    def _scalar_observations(
        self, items: Iterable[Any]
    ) -> Tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        pairs = np.array(
            [self.observation(item) for item in items], dtype=np.int64
        ).reshape(-1, 2)
        return pairs[:, 0], pairs[:, 1]

    # ------------------------------------------------------------------
    # Single-item insertion.
    # ------------------------------------------------------------------
    def insert(
        self,
        metric_id: Hashable,
        item: Any,
        origin: Optional[int] = None,
        now: int = 0,
    ) -> OpCost:
        """Record one item under ``metric_id``; returns the cost.

        Items whose position falls below the configured ``bit_shift``
        are assumed set and cost nothing (section 3.5).
        """
        vector, position = self.observation(item)
        # ``observation`` clamps the position, so only the shift can
        # leave it without an interval.
        index = position - self.config.bit_shift
        if index < 0:
            return OpCost()
        return self._store_mask(
            index, metric_id, position, 1 << vector, None, origin, now
        )

    def insert_many(
        self,
        metric_id: Hashable,
        items: Iterable[Any],
        origin: Optional[int] = None,
        now: int = 0,
    ) -> OpCost:
        """Insert items one at a time (at most one DHT store each).

        Items whose position falls below the configured ``bit_shift``
        are assumed set (section 3.5): they store nothing and contribute
        zero cost, so the per-item store count is *at most* one.
        """
        total = OpCost()
        for item in items:
            total.add(self.insert(metric_id, item, origin=origin, now=now))
        return total

    # ------------------------------------------------------------------
    # Bulk insertion: group by interval, one store per interval.
    # ------------------------------------------------------------------
    def insert_bulk(
        self,
        metric_id: Hashable,
        items: Iterable[Any],
        origin: Optional[int] = None,
        now: int = 0,
    ) -> OpCost:
        """Record many items with at most one DHT store per interval.

        All of an interval's tuples ride a single routed message, so the
        hop cost is ``O(k log N)`` per caller regardless of item count
        (the byte cost still scales with the distinct tuples sent).
        """
        vectors, positions = self._scalar_observations(items)
        return self.insert_observation_arrays(
            metric_id, vectors, positions, origin=origin, now=now
        )

    def insert_array(
        self,
        metric_id: Hashable,
        item_ids: npt.ArrayLike,
        origin: Optional[int] = None,
        now: int = 0,
    ) -> OpCost:
        """:meth:`insert_bulk` over an array of non-negative integer ids.

        Hashes with :meth:`observations` and stores through the same
        grouped write, so given the same items, seed and overlay state it
        performs the same stores, draws the same random target keys and
        returns an equal :class:`~repro.overlay.stats.OpCost`.
        """
        vectors, positions = self.observations(item_ids)
        return self.insert_observation_arrays(
            metric_id, vectors, positions, origin=origin, now=now
        )

    def insert_observation_arrays(
        self,
        metric_id: Hashable,
        vectors: npt.ArrayLike,
        positions: npt.ArrayLike,
        origin: Optional[int] = None,
        now: int = 0,
    ) -> OpCost:
        """Bulk-insert pre-computed ``(vector, position)`` observations.

        The one grouped write every bulk entry point ends in.  Positions
        are clamped to ``position_bits - 1`` and those below ``bit_shift``
        dropped; a boolean scatter over (position, vector) dedups without
        a sort, ``np.packbits`` packs each position's distinct vectors
        into register words, and each non-empty interval gets one store
        of that bitmap, in ascending interval order.  The payload counts
        one tuple per distinct ``(vector, position)`` pair.

        Raises ``ValueError`` before any store (and any random draw) for
        a vector outside ``[0, m)`` or a negative position.
        """
        config = self.config
        m = config.num_bitmaps
        n_pos = config.position_bits
        vectors = np.asarray(vectors, dtype=np.int64)
        positions = np.minimum(np.asarray(positions, dtype=np.int64), n_pos - 1)
        try:
            # Flat (position, vector) cell; raises on a negative position
            # or a vector outside [0, m) instead of aliasing a neighbour.
            cells = np.ravel_multi_index((positions, vectors), (n_pos, m))
        except ValueError:
            raise ValueError(
                f"observations need 0 <= vector < {m} and position >= 0"
            ) from None
        # Boolean presence grid over (position, vector): duplicate
        # observations collapse for free, no O(n log n) sort needed.
        grid = np.zeros(n_pos * m, dtype=bool)
        grid[cells] = True
        grid = grid.reshape(n_pos, m)
        packed = np.packbits(grid, axis=1, bitorder="little")
        words = (m + 63) // 64
        rows8 = np.zeros((n_pos, words * 8), dtype=np.uint8)
        rows8[:, : packed.shape[1]] = packed
        rows = rows8.view(np.uint64)
        pos_seen = np.zeros(n_pos, dtype=bool)
        pos_seen[positions] = True
        # Positions below the shift are assumed set: never stored.
        pos_seen[: config.bit_shift] = False
        total = OpCost()
        for position in np.flatnonzero(pos_seen).tolist():
            delta = rows[position]
            mask = int.from_bytes(delta.tobytes(), "little")
            total.add(
                self._store_mask(
                    self.mapping.interval_index(position),
                    metric_id, position, mask, delta, origin, now,
                )
            )
        return total

    # ------------------------------------------------------------------
    # Shared write path.
    # ------------------------------------------------------------------
    def _store_mask(
        self,
        index: int,
        metric_id: Hashable,
        position: int,
        mask: int,
        delta: Optional[npt.NDArray[np.uint64]],
        origin: Optional[int],
        now: int,
    ) -> OpCost:
        """Store one interval's deduplicated vector bitmap."""
        expiry = self.config.expiry(now)
        arena = self.arena

        def write(node: Node) -> None:
            write_entry_mask(
                node, metric_id, position, mask, delta=delta, arena=arena, expiry=expiry
            )

        return self._store_write(index, write, mask.bit_count(), origin, now)

    def _store_write(
        self,
        index: int,
        write: Callable[[Node], None],
        count: int,
        origin: Optional[int],
        now: int,
    ) -> OpCost:
        if not obs.TRACING and not obs.METERING:
            return self._store_write_impl(index, write, count, origin, now)
        if not obs.TRACING:
            cost = self._store_write_impl(index, write, count, origin, now)
            self._meter_store(count, cost)
            return cost
        with obs.TRACER.span(
            "insert.store", tick=now, interval=index, tuples=count
        ) as span:
            cost = self._store_write_impl(index, write, count, origin, now)
            span.set(
                hops=cost.hops,
                messages=cost.messages,
                drops=cost.drops,
                timeouts=cost.timeouts,
            )
        if obs.METERING:
            self._meter_store(count, cost)
        return cost

    def _meter_store(self, count: int, cost: OpCost) -> None:
        obs.METRICS.inc("dhs.insert.stores")
        obs.METRICS.inc("dhs.insert.tuples", count)
        obs.METRICS.observe("dhs.insert.store_hops", cost.hops)

    def _store_write_impl(
        self,
        index: int,
        write: Callable[[Node], None],
        count: int,
        origin: Optional[int],
        now: int,
    ) -> OpCost:
        key = self.mapping.random_key_in_interval(index, self._rng)
        dht = self.dht
        payload = count * self.config.size_model.tuple_bytes
        if dht.fault_layer is None:
            # Only a fault layer drops messages: a plain call, no loss.
            storing_node, cost = dht.store(key, write, origin, payload)
        else:
            loss_cost = OpCost()
            try:
                storing_node, cost = self.policy.call(
                    dht.store, self._rng, loss_cost, key, write, origin, payload
                )
            except MessageDropped:
                # Lost for good: the tuples were never stored.  Soft-state
                # refresh (or read-repair) re-creates them later; the
                # timeout/backoff accounting survives in the cost.
                if obs.TRACING:
                    obs.TRACER.event("insert.lost", tick=now, interval=index)
                return loss_cost
            if loss_cost.timeouts:
                cost.add(loss_cost)
        if obs.TRACING:
            obs.TRACER.event(
                "dht.store", tick=now, key=key, node=storing_node, hops=cost.hops
            )
        if self.config.replication > 0:
            extra = replicate_to_successors(
                dht,
                storing_node,
                write,
                degree=self.config.replication,
                payload_bytes=payload,
            )
            if extra is not None:
                cost.add(extra)
                if obs.TRACING:
                    obs.TRACER.event(
                        "replicate", tick=now, node=storing_node, hops=extra.hops
                    )
        return cost
