"""Executable reference for DHS insertion (paper sections 3.2, 3.4, 3.5).

Deliberately naive: a dict of sets per interval, one store per stored
interval in ascending order, one tuple write per ``(vector, position)``.
It shares no code with :mod:`repro.core.insert` — only the overlay's
``store``, the replica walk and the per-tuple ``write_entry`` — so a
differential against it checks the package's grouping, clamping,
shifting, bitmap packing and expiry handling from the outside.

A batch of observations is written as the paper says:

1. clamp each position to ``position_bits - 1`` (the sketches' rule);
2. drop positions below ``bit_shift`` (assumed set, section 3.5);
3. group the distinct vectors by interval ``position - bit_shift``;
4. per interval, ascending: draw one random key in the interval, store
   every vector of the interval there in one message (payload = one
   tuple per vector), then copy it to ``R`` successors.
"""

from typing import Any, Dict, Hashable, Iterable, Optional, Set, Tuple

from repro.core.tuples import write_entry
from repro.overlay.replication import replicate_to_successors
from repro.overlay.stats import OpCost
from repro.sketches.base import split_key


def observe(dhs, item: Any) -> Tuple[int, int]:
    """The sketch rule: ``(vector, rho)`` of the item's hashed key."""
    return split_key(dhs.hash_family(item), dhs.config.num_bitmaps, dhs.config.key_bits)


def bulk_insert(
    dhs,
    rng,
    metric_id: Hashable,
    observations: Iterable[Tuple[int, int]],
    origin: Optional[int] = None,
    now: int = 0,
) -> OpCost:
    """Write ``observations`` into ``dhs``'s overlay, drawing keys from ``rng``.

    ``dhs`` supplies only the overlay, the config, the interval mapping
    and the slot arena; its inserter is never used.
    """
    config = dhs.config
    observations = list(observations)
    for vector, position in observations:
        if not 0 <= vector < config.num_bitmaps or position < 0:
            raise ValueError(f"bad observation {(vector, position)}")
    by_interval: Dict[int, Set[int]] = {}
    for vector, position in observations:
        position = min(position, config.position_bits - 1)
        if position < config.bit_shift:
            continue
        by_interval.setdefault(position - config.bit_shift, set()).add(vector)
    expiry = None if config.ttl is None else now + config.ttl
    total = OpCost()
    for index in sorted(by_interval):
        position = index + config.bit_shift
        vectors = sorted(by_interval[index])

        def write(node, vectors=vectors, position=position):
            for vector in vectors:
                write_entry(node, metric_id, vector, position, expiry, arena=dhs.arena)

        payload = len(vectors) * config.size_model.tuple_bytes
        key = dhs.mapping.random_key_in_interval(index, rng)
        stored_at, cost = dhs.dht.store(key, write, origin=origin, payload_bytes=payload)
        if config.replication > 0:
            cost.add(
                replicate_to_successors(
                    dhs.dht, stored_at, write, config.replication, payload
                )
            )
        total.add(cost)
    return total


def insert_items(dhs, rng, metric_id, items, origin=None, now=0) -> OpCost:
    """Bulk-insert items: observe each with the sketch rule, then write."""
    return bulk_insert(
        dhs, rng, metric_id, [observe(dhs, item) for item in items], origin, now
    )
