"""Assigning workload items to overlay nodes.

The paper assigns tuples to nodes uniformly at random (section 5.1);
each node then acts as the *inserter* for its own items.  Having many
independent inserters matters: every inserter picks its own random
target key per interval, which is what spreads copies of each logical
DHS bit across an interval's nodes and makes the counting probe
succeed with few retries.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigurationError
from repro.sim.seeds import derive_seed

__all__ = ["assign_uniform", "assign_items"]


def assign_uniform(
    n_items: int,
    node_ids: Sequence[int],
    seed: int = 0,
) -> Dict[int, npt.NDArray[np.intp]]:
    """Uniformly map item indices ``[0, n_items)`` onto nodes.

    Returns ``{node_id: array of item indices}`` covering every index
    exactly once: nodes in ``node_ids`` order (nodes that drew nothing
    are absent), each node's indices ascending.  The arrays are
    consecutive views of one ``intp`` permutation — the only full-size
    array that outlives the call.
    """
    if n_items < 0:
        raise ConfigurationError(f"n_items must be >= 0, got {n_items}")
    if not node_ids:
        raise ConfigurationError("need at least one node")
    rng = np.random.default_rng(derive_seed(seed, "assignment") % (2**32))
    # Drawn as int64 (the dtype selects numpy's stream), held in the
    # narrowest unsigned type: the stable argsort of 8/16-bit keys is a
    # radix sort.
    choices = rng.integers(0, len(node_ids), size=n_items).astype(
        np.min_scalar_type(len(node_ids) - 1)
    )
    order = np.argsort(choices, kind="stable")
    # ends[i] = how many items drew a node <= i, read off the narrow
    # keys through the permutation (no sorted copy, no upcast).
    ends = np.searchsorted(
        choices, np.arange(len(node_ids), dtype=choices.dtype), side="right", sorter=order
    )
    assignment: Dict[int, npt.NDArray[np.intp]] = {}
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
