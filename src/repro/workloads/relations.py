"""The paper's evaluation relations Q, R, S, T.

Section 5.1: four relations of 10/20/40/80 million 1 kB tuples, each
with a single integer attribute drawn Zipf(θ = 0.7), tuples assigned
uniformly at random to the overlay nodes.  ``standard_relations`` builds
the same workload at a configurable ``scale`` (1.0 = paper size); the
error-versus-m shapes only depend on being deep in the ``n >> m``
regime, which far smaller scales already are (see EXPERIMENTS.md).

Tuples are identified by dense 64-bit ids ``(relation_tag << 40) | index``
so hashing stays on the fast integer path; attribute values live in a
numpy array alongside.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigurationError
from repro.workloads.zipf import ZipfGenerator

__all__ = ["Relation", "make_relation", "standard_relations", "PAPER_SIZES"]

#: Paper section 5.1 relation cardinalities (tuples).
PAPER_SIZES: Dict[str, int] = {
    "Q": 10_000_000,
    "R": 20_000_000,
    "S": 40_000_000,
    "T": 80_000_000,
}

#: Tuple size assumed by the paper (1 kB) — used by the join cost model.
TUPLE_BYTES = 1024


@dataclass
class Relation:
    """A relation materialized for the simulation.

    ``values`` is the join attribute (the paper's single integer
    attribute ``a``).  ``filter_values`` optionally materializes a
    second, non-join attribute ``b`` for selection predicates — the
    multi-attribute extension the paper's introduction motivates.
    """

    name: str
    tag: int
    values: npt.NDArray[np.int64]  # join-attribute value per tuple
    domain: Tuple[int, int]  # [amin, amax] inclusive
    tuple_bytes: int = TUPLE_BYTES
    filter_values: npt.NDArray[np.int64] | None = None
    filter_domain: Tuple[int, int] | None = None

    @property
    def size(self) -> int:
        """Number of tuples."""
        return int(self.values.shape[0])

    def item_id(self, index: int) -> int:
        """Globally unique 64-bit id of tuple ``index``."""
        return (self.tag << 40) | index

    def item_ids(self) -> npt.NDArray[np.int64]:
        """All tuple ids as an int64 array."""
        return (np.int64(self.tag) << np.int64(40)) | np.arange(
            self.size, dtype=np.int64
        )


def _tag_for(name: str) -> int:
    """A stable 23-bit integer tag derived from the relation name alone.

    Pure by construction: the tag depends only on ``name``, never on how
    many relations were built first or in which order — workers building
    relations in different orders must mint identical tuple ids.  23 bits
    keeps ``tag << 40`` within a signed int64; blake2b makes collisions
    between the handful of workload names (Q/R/S/T, fixtures) negligible.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=3).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFF


def make_relation(
    name: str,
    n_tuples: int,
    domain: int = 10_000,
    theta: float = 0.7,
    seed: int = 0,
    filter_domain: int | None = None,
    filter_theta: float = 0.7,
) -> Relation:
    """Build a relation with Zipf(θ)-distributed attribute values.

    ``filter_domain`` adds a second (non-join) attribute ``b`` with its
    own Zipf distribution, independent of ``a``.
    """
    if n_tuples < 1:
        raise ConfigurationError(f"n_tuples must be >= 1, got {n_tuples}")
    if n_tuples >= 1 << 40:
        raise ConfigurationError("n_tuples must fit in 40 bits")
    generator = ZipfGenerator(domain, theta=theta)
    values = generator.sample(n_tuples, seed=seed)
    filter_values = None
    filter_bounds = None
    if filter_domain is not None:
        filter_generator = ZipfGenerator(filter_domain, theta=filter_theta)
        filter_values = filter_generator.sample(n_tuples, seed=seed + 7919)
        filter_bounds = (1, filter_domain)
    return Relation(
        name=name,
        tag=_tag_for(name),
        values=values,
        domain=(1, domain),
        filter_values=filter_values,
        filter_domain=filter_bounds,
    )


def standard_relations(
    scale: float = 1e-3,
    domain: int = 10_000,
    theta: float = 0.7,
    seed: int = 0,
) -> List[Relation]:
    """The paper's Q/R/S/T workload at the given scale factor."""
    if not 0 < scale <= 1:
        raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
    relations = []
    for i, (name, full_size) in enumerate(PAPER_SIZES.items()):
        n_tuples = max(1, int(full_size * scale))
        relations.append(
            make_relation(name, n_tuples, domain=domain, theta=theta, seed=seed + i)
        )
    return relations
