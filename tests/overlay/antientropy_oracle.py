"""Naive reference for the replica-chain repair paths (not a test module).

A deliberately slow transcription of the per-pair algorithm that
``repro.overlay.replication.ChainView`` replaced, kept so the fast paths
are checked against something that shares none of their shortcuts:

* chains are found by scanning the whole sorted membership, corpses and
  unreachable nodes included, one position at a time;
* every pair rescans both stores and re-reads every predecessor slot;
* liveness is recomputed from ``mask`` / ``expiring`` directly, never
  through ``live_mask`` or a packed int;
* both sides' ``{key: mask}`` views are built for every direction,
  converged or not, and compared key by key: a direction is converged
  iff they are equal, and a segment mismatches iff one of its keys'
  masks differs — what equal or unequal digests of those views say.

Only the injected callables (``visible``, ``segment_of``, ``write_fn``)
and the stats/cost containers come from the package.

:func:`sync_stores` is the exception: a whole-store pair exchange that
only the tests drive, built on the package's own ``ChainView`` and
direction sync rather than on the naive paths above.
"""

from repro.overlay.antientropy import AntiEntropyStats, _charge_roots
from repro.overlay.antientropy import _sync_direction as _packed_sync_direction
from repro.overlay.messages import DEFAULT_SIZE_MODEL
from repro.overlay.replication import ChainView


def ring_walk(dht, node_id, degree, step, responsive_only):
    """First ``degree`` live (and responsive) nodes clockwise (+1) or
    counter-clockwise (-1) of ``node_id``, by linear membership scan."""
    ring = [int(n) for n in dht.node_ids()]
    at = ring.index(node_id)
    found = []
    for k in range(1, len(ring)):
        if len(found) == degree:
            break
        candidate = ring[(at + step * k) % len(ring)]
        if not dht.is_alive(candidate):
            continue
        if responsive_only and not dht.node_responsive(candidate):
            continue
        found.append(candidate)
    return found


def live_vectors(slot, now):
    """Vector ids alive in ``slot`` at ``now``, from the raw fields."""
    alive = {v for v in range(slot.mask.bit_length()) if (slot.mask >> v) & 1}
    alive.update(v for v, e in (slot.expiring or {}).items() if e >= now)
    return alive


def _mask(vectors):
    return sum(1 << v for v in vectors)


def _slots(node):
    return [
        (key, slot)
        for key, slot in node.store.items()
        if isinstance(key, tuple)
        and len(key) == 2
        and isinstance(key[1], int)
        and hasattr(slot, "live_mask")
    ]


def _held(dht, node_id, key, now):
    slot = dict(_slots(dht.node(node_id))).get(key)
    return live_vectors(slot, now) if slot is not None else set()


def _expiry(slot, vector):
    return None if (slot.mask >> vector) & 1 else int(slot.expiring[vector])


def _primary_view(dht, node_id, now, degree):
    preds = ring_walk(dht, node_id, degree, -1, True)
    view = {}
    for key, slot in _slots(dht.node(node_id)):
        primary = live_vectors(slot, now)
        for pred in preds:
            primary -= _held(dht, pred, key, now)
        if primary:
            view[key] = (_mask(primary), slot)
    return view


def _homecoming_view(dht, holder_id, home_id, now, visible):
    view = {}
    for key, slot in _slots(dht.node(holder_id)):
        if not visible(key[1], home_id) or visible(key[1], holder_id):
            continue
        live = live_vectors(slot, now)
        if live:
            view[key] = (_mask(live), slot)
    return view


def _sync_direction(dht, dst_id, view, now, model, segment_of, write_fn, stats):
    cost = stats.cost
    cost.messages += 2
    cost.hops += 2
    cost.bytes += 2 * model.digest_bytes
    dst = dht.node(dst_id)
    offered = {key: mask for key, (mask, _) in view.items()}
    dst_masks = {
        key: _mask(_held(dht, dst_id, key, now)) & mask
        for key, mask in offered.items()
    }
    if offered == dst_masks:
        return True
    segments = {segment_of(key[1]) for key in offered}
    stats.segments_checked += len(segments)
    cost.messages += 2
    cost.hops += 2
    cost.bytes += 2 * len(segments) * model.digest_bytes
    mismatched = {
        segment_of(key[1]) for key in offered if offered[key] != dst_masks[key]
    }
    stats.segments_mismatched += len(mismatched)
    shipped_slots = shipped_entries = 0
    for key, (mask, slot) in view.items():
        if segment_of(key[1]) not in mismatched:
            continue
        shipped_slots += 1
        shipped_entries += bin(mask).count("1")
        metric, bit = key
        for vector in sorted(live_vectors(slot, now)):
            if (mask >> vector) & 1 and not (dst_masks[key] >> vector) & 1:
                write_fn(dst, metric, vector, bit, _expiry(slot, vector))
                stats.entries_written += 1
                cost.repair_writes += 1
    stats.entries_sent += shipped_entries
    cost.messages += 1
    cost.hops += 1
    cost.bytes += model.summary_bytes(shipped_slots, shipped_entries)
    dht.load.record(dst_id)
    return False


def antientropy_round(
    dht, replication, now, *, visible, segment_of, write_fn,
    model=DEFAULT_SIZE_MODEL, rng=None, sample=None, log=None,
):
    """One round, pair by pair, exactly as it ran before the chain view.

    ``log``, if given, collects ``(src, dst)`` of every direction whose
    two views differed, in round order.
    """
    stats = AntiEntropyStats()
    ids = [int(n) for n in dht.node_ids() if dht.node_responsive(n)]
    if sample is not None and rng is not None and 0 < sample < len(ids):
        ids = sorted(rng.sample(ids, sample))
    degree = max(1, replication)
    for left_id in ids:
        for right_id in ring_walk(dht, left_id, degree, +1, True):
            stats.pairs += 1
            push = _primary_view(dht, left_id, now, degree)
            pushed = _sync_direction(
                dht, right_id, push, now, model, segment_of, write_fn, stats
            )
            home = _homecoming_view(dht, right_id, left_id, now, visible)
            homed = _sync_direction(
                dht, left_id, home, now, model, segment_of, write_fn, stats
            )
            if log is not None:
                log.extend(
                    direction
                    for direction, held in (
                        ((left_id, right_id), pushed), ((right_id, left_id), homed)
                    )
                    if not held
                )
            stats.pairs_converged += pushed and homed
    return stats


def replica_divergence(dht, replication, now):
    """Brute-force recount: one missing (replica, key, vector) at a time."""
    total = 0
    for node_id in [int(n) for n in dht.node_ids()]:
        if not dht.node_responsive(node_id):
            continue
        preds = ring_walk(dht, node_id, replication, -1, True)
        chain = ring_walk(dht, node_id, replication, +1, True)
        for key, slot in _slots(dht.node(node_id)):
            for vector in live_vectors(slot, now):
                if any(vector in _held(dht, p, key, now) for p in preds):
                    continue
                total += sum(
                    vector not in _held(dht, r, key, now) for r in chain
                )
    return total


def sync_stores(
    dht, left_id, right_id, now, *,
    model=DEFAULT_SIZE_MODEL, segment_of, write_fn, stats=None,
):
    """Full bidirectional sync: both stores end at the OR of their live state.

    The degenerate (chain-oblivious) exchange the tests use to prove
    convergence properties.
    """
    if stats is None:
        stats = AntiEntropyStats()
    stats.pairs += 1
    _charge_roots(stats, model, 2)
    view = ChainView(dht, now)
    view.pack((left_id, right_id))
    converged = True
    for src_id, dst_id in ((left_id, right_id), (right_id, left_id)):
        offered = view.packed(src_id)
        if offered & ~view.packed(dst_id):
            converged = False
            _packed_sync_direction(
                view, src_id, dst_id, offered,
                model=model, segment_of=segment_of, write_fn=write_fn, stats=stats,
            )
    if converged:
        stats.pairs_converged += 1
    return stats
