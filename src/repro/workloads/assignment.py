"""Assigning workload items to overlay nodes.

The paper assigns tuples to nodes uniformly at random (section 5.1);
each node then acts as the *inserter* for its own items.  Having many
independent inserters matters: every inserter picks its own random
target key per interval, which is what spreads copies of each logical
DHS bit across an interval's nodes and makes the counting probe
succeed with few retries.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Sequence

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigurationError
from repro.sim.seeds import derive_seed

__all__ = ["assign_uniform", "assign_items"]

#: Items drawn, counted and scattered per step of :func:`assign_uniform`:
#: its ``int64``/``intp`` temporaries are this long, never item-sized.
_CHUNK_ITEMS = 1 << 16


def assign_uniform(
    n_items: int,
    node_ids: Sequence[int],
    seed: int = 0,
) -> Dict[int, npt.NDArray[np.unsignedinteger[Any]]]:
    """Uniformly map item indices ``[0, n_items)`` onto nodes.

    Returns ``{node_id: array of item indices}`` covering every index
    exactly once: nodes in ``node_ids`` order (nodes that drew nothing
    are absent), each node's indices ascending.  The arrays are
    consecutive views of one permutation in the narrowest unsigned type
    that holds ``n_items - 1`` — the only full-size array that outlives
    the call.  While it runs, the owner keys (the narrowest unsigned
    type that holds ``len(node_ids) - 1``) are the only other one.

    Owner *i* gets exactly ``np.flatnonzero(choices == i)`` of the
    one-shot ``int64`` draw ``choices``; it is built by a counting sort
    over chunks of that draw instead of a full-size argsort.
    """
    if n_items < 0:
        raise ConfigurationError(f"n_items must be >= 0, got {n_items}")
    if not node_ids:
        raise ConfigurationError("need at least one node")
    n_nodes = len(node_ids)
    rng = np.random.default_rng(derive_seed(seed, "assignment") % (2**32))
    chunks = range(0, n_items, _CHUNK_ITEMS)
    # Drawn as int64 (the dtype selects numpy's stream, which does not
    # depend on how it is chunked), held in the narrowest unsigned type.
    keys = np.empty(n_items, dtype=np.min_scalar_type(n_nodes - 1))
    counts = np.zeros(n_nodes, dtype=np.int64)
    for lo in chunks:
        chunk = keys[lo : lo + _CHUNK_ITEMS]
        chunk[:] = rng.integers(0, n_nodes, size=chunk.size)
        counts += np.bincount(chunk, minlength=n_nodes)
    ends = np.cumsum(counts)
    # Counting sort: a chunk's indices, stably grouped by owner, go to
    # their owner's cursor, so every owner's run stays ascending.
    order = np.empty(n_items, dtype=np.min_scalar_type(n_items - 1))
    cursor = ends - counts
    for lo in chunks:
        chunk = keys[lo : lo + _CHUNK_ITEMS]
        within = np.argsort(chunk, kind="stable")
        chunk_counts = np.bincount(chunk, minlength=n_nodes)
        # Grouped position p of owner k goes to cursor[k] + p - (start of k's group).
        shift = cursor - (np.cumsum(chunk_counts) - chunk_counts)
        order[np.repeat(shift, chunk_counts) + np.arange(chunk.size)] = within + lo
        cursor += chunk_counts
    assignment: Dict[int, npt.NDArray[np.unsignedinteger[Any]]] = {}
    start = 0
    for node_id, end in zip(node_ids, ends.tolist()):
        if end > start:
            assignment[node_id] = order[start:end]
            start = end
    return assignment


def assign_items(
    items: Sequence[Hashable],
    node_ids: Sequence[int],
    seed: int = 0,
) -> Dict[int, List[Hashable]]:
    """Uniformly map concrete items onto nodes (small workloads)."""
    index_map = assign_uniform(len(items), node_ids, seed=seed)
    return {
        node_id: [items[i] for i in indices] for node_id, indices in index_map.items()
    }
