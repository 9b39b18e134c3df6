"""Multiset workloads with controlled duplication.

Duplicate insensitivity is the paper's constraint (6); this generator
produces multisets whose distinct-count is known exactly, with duplicates
modelling replicated documents in a file-sharing network or the same
event reported by several sensors.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigurationError
from repro.sim.seeds import rng_for

__all__ = ["zipf_duplicated_multiset"]


def zipf_duplicated_multiset(
    n_distinct: int,
    total: int,
    theta: float = 1.0,
    seed: int = 0,
) -> List[int]:
    """A ``total``-element multiset over ``n_distinct`` items with
    Zipf-skewed duplication (popular documents replicated more).

    Every distinct item appears at least once, so the exact distinct
    count is ``n_distinct``.
    """
    if n_distinct < 1:
        raise ConfigurationError(f"n_distinct must be >= 1, got {n_distinct}")
    if total < n_distinct:
        raise ConfigurationError(
            f"total ({total}) must be >= n_distinct ({n_distinct})"
        )
    from repro.workloads.zipf import ZipfGenerator

    items = list(range(n_distinct))
    extras = total - n_distinct
    if extras:
        generator = ZipfGenerator(n_distinct, theta=theta)
        items.extend(int(v) - 1 for v in generator.sample(extras, seed=seed))
    rng_for(seed, "zipf-dup").shuffle(items)
    return items
