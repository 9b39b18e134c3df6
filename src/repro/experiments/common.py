"""Shared experiment machinery.

Every experiment driver in this package follows the same recipe as the
paper's evaluation (section 5.1): build a Chord-like overlay, scatter
the workload's tuples uniformly over the nodes, let every node
bulk-insert its own items into the DHS, then measure insertion /
counting / histogram costs and accuracy from randomly chosen querying
nodes.

``populate_metric`` is the fast path: owners are assigned first, then
each block of consecutive owners is hashed with the vectorized hasher
right before its per-owner inserts, so multi-million-tuple runs stay
tractable in pure Python and their transient memory is the owner
permutation plus one block, not a dozen metric-sized hash temporaries.

Scaling: ``env_scale()`` reads ``DHS_SCALE`` (default 1e-3) so the whole
benchmark suite can be re-run closer to paper scale with one knob.
"""

from __future__ import annotations

import inspect
import math
import os
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np
import numpy.typing as npt

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.core.insert import item_id_array
from repro.errors import ConfigurationError
from repro.overlay.chord import ChordRing
from repro.overlay.stats import OpCost
from repro.sim.parallel import TrialSpec, run_trials
from repro.sim.seeds import derive_seed, rng_for
from repro.workloads.assignment import assign_uniform
from repro.workloads.relations import Relation

__all__ = [
    "Experiment",
    "Params",
    "concat",
    "env_scale",
    "build_ring",
    "populate_metric",
    "populate_relation",
    "populate_histogram_metrics",
    "filter_bucket_metric",
    "populate_filter_histogram_metrics",
    "bucket_metric",
    "CountSample",
    "sample_counts",
    "count_both",
]

#: Default workload scale relative to the paper (10/20/40/80 M tuples).
DEFAULT_SCALE = 1e-3


def env_scale(default: float = DEFAULT_SCALE) -> float:
    """Workload scale factor from ``DHS_SCALE`` (1.0 = paper size).

    The variable is outside input: anything but a finite number ``> 0``
    raises :class:`~repro.errors.ConfigurationError`.
    """
    raw = os.environ.get("DHS_SCALE")
    if raw is None:
        return default
    try:
        scale = float(raw)
    except ValueError:
        scale = 0.0  # rejected below, quoting the raw text
    if not (math.isfinite(scale) and scale > 0.0):
        raise ConfigurationError(f"DHS_SCALE must be a number > 0, got {raw!r}")
    return scale


#: Resolved experiment params: an entry's defaults with overrides applied.
Params = Dict[str, Any]


def concat(results: List[Any], params: Params) -> Any:
    """Reduce cells that each return a list of rows to one list."""
    return [row for rows in results for row in rows]


@dataclass(frozen=True)
class Experiment:
    """One CLI command: its params, its cells and its result files.

    ``params`` holds every keyword it takes, defaults pinned to what its
    committed files under ``benchmarks/results/`` (stems ``results``)
    used, seed included.  ``cells(params)`` gives one
    :class:`~repro.sim.parallel.TrialSpec` per independent cell, called
    with its seed and kwargs plus every other param its keyword-only
    signature names; ``reduce`` folds their results, in grid order, into
    rows (default: the list).  A single-shot experiment gives
    ``run(**params)`` instead.  ``render(rows, params)`` maps a stem to
    each text it prints; ``--output`` writes only the ``results`` stems.
    ``--nodes N`` sets the params ``node_params(N)`` returns.
    """

    name: str
    description: str
    results: Tuple[str, ...]
    params: Mapping[str, Any]
    render: Callable[[Any, Params], Dict[str, str]]
    cells: Optional[Callable[[Params], List[TrialSpec]]] = None
    reduce: Optional[Callable[[List[Any], Params], Any]] = None
    run: Optional[Callable[..., Any]] = None
    node_params: Callable[[int], Params] = lambda n_nodes: {"n_nodes": n_nodes}

    def resolve(self, overrides: Mapping[str, Any]) -> Params:
        """Defaults plus ``overrides``, an unknown name being an error.

        A ``scale`` not overridden is resolved here, once, through
        :func:`env_scale`, so run and render see the same value.
        """
        unknown = sorted(set(overrides) - set(self.params))
        if unknown:
            raise ConfigurationError(
                f"{self.name} takes no param {unknown[0]!r}; "
                f"expected one of {sorted(self.params)}"
            )
        params = {**self.params, **overrides}
        if "scale" in params and "scale" not in overrides:
            params["scale"] = env_scale(params["scale"])
        return params

    def grid(self, params: Params) -> List[TrialSpec]:
        """The cells of resolved ``params``, each given the params it names."""
        assert self.cells is not None, f"{self.name} is single-shot"
        return [
            replace(spec, kwargs={**_named(spec.fn, params), **spec.kwargs})
            for spec in self.cells(params)
        ]

    def execute(self, params: Params, jobs: Optional[int] = None) -> Any:
        """Rows of resolved ``params``; cells fan out through ``run_trials``."""
        if self.run is not None:
            return self.run(**params)
        return self.fold(run_trials(self.grid(params), jobs=jobs), params)

    def fold(self, results: List[Any], params: Params) -> Any:
        """Rows of the cell results, in grid order."""
        return results if self.reduce is None else self.reduce(results, params)


def _named(fn: Callable[..., Any], params: Params) -> Params:
    """The params, seed aside, that ``fn``'s signature names."""
    names = inspect.signature(fn).parameters
    return {name: params[name] for name in names if name in params and name != "seed"}


def build_ring(n_nodes: int = 1024, bits: int = 64, seed: int = 0) -> ChordRing:
    """The paper's overlay: a Chord-like ring (1024 nodes by default)."""
    return ChordRing.build(n_nodes, bits=bits, seed=derive_seed(seed, "ring"))


#: Items hashed per ``Inserter.observations`` call.  Large enough that small
#: owner shares (100 buckets x 64 owners x ~156 items) do not pay one
#: numpy dispatch chain each, small enough that a hash's dozen ``uint64``
#: temporaries stay cache-resident instead of being full-size arrays.
_BLOCK_ITEMS = 1 << 15


def populate_metric(
    dhs: DistributedHashSketch,
    metric_id: Hashable,
    item_ids: npt.ArrayLike,
    seed: int = 0,
    now: int = 0,
) -> OpCost:
    """Insert items into a DHS metric, each from its owning node.

    Items are spread uniformly over the live nodes and every node
    bulk-inserts its share — the deployment the paper evaluates, and the
    reason each logical bit ends up replicated across its interval.

    Owners are assigned first and then visited in ``assign_uniform``'s
    order, in blocks of consecutive owners holding at least
    ``_BLOCK_ITEMS`` items: a block's ids are gathered and hashed with
    one call right before its per-owner inserts, so observation arrays
    are block-sized, never metric-sized.  Each owner still inserts
    exactly its own observations in ascending item index.

    ``item_ids`` is a 1-D array-like of non-negative integers; anything
    else (a negative id, a float, a 2-D array) raises ``ValueError``
    before owners are drawn or anything is stored.
    """
    item_ids = item_id_array(item_ids)
    # A reduction, not a metric-sized ``item_ids < 0`` mask.
    if item_ids.size and item_ids.min() < 0:
        raise ValueError("populate_metric requires non-negative item ids")
    inserter = dhs._inserter
    assignment = assign_uniform(
        len(item_ids), list(dhs.dht.node_ids()), seed=derive_seed(seed, "owners")
    )
    total = OpCost()
    for block in _owner_blocks(assignment):
        ids = item_ids[np.concatenate([indices for _, indices in block])]
        vectors, positions = inserter.observations(ids)
        lo = 0
        for node_id, indices in block:
            hi = lo + indices.size
            total.add(
                inserter.insert_observation_arrays(
                    metric_id, vectors[lo:hi], positions[lo:hi], origin=node_id, now=now
                )
            )
            lo = hi
    return total


def _owner_blocks(
    assignment: Dict[int, npt.NDArray[np.unsignedinteger[Any]]],
) -> Iterator[List[Tuple[int, npt.NDArray[np.unsignedinteger[Any]]]]]:
    """Consecutive owners, cut as soon as a block holds ``_BLOCK_ITEMS`` items."""
    block: List[Tuple[int, npt.NDArray[np.unsignedinteger[Any]]]] = []
    held = 0
    for node_id, indices in assignment.items():
        block.append((node_id, indices))
        held += indices.size
        if held >= _BLOCK_ITEMS:
            yield block
            block, held = [], 0
    if block:
        yield block


def populate_relation(
    dhs: DistributedHashSketch,
    relation: Relation,
    seed: int = 0,
    now: int = 0,
) -> OpCost:
    """Insert every tuple of a relation under the metric ``relation.name``."""
    return populate_metric(dhs, relation.name, relation.item_ids(), seed=seed, now=now)


def bucket_metric(relation_name: str, bucket: int) -> Hashable:
    """The DHS metric id of one histogram bucket."""
    return (relation_name, "hist", bucket)


def _populate_buckets(
    dhs: DistributedHashSketch,
    relation: Relation,
    values: npt.NDArray[np.int64],
    lo: int,
    hi: int,
    n_buckets: int,
    metric_of: Callable[[str, int], Hashable],
    seed_label: str,
    seed: int,
    now: int,
) -> OpCost:
    """Insert a relation's tuples under one metric per equi-width bucket.

    ``values`` are bucketed over ``[lo, hi]``; bucket ``b`` is metric
    ``metric_of(relation.name, b)``, populated under the seed
    ``derive_seed(seed, seed_label, b)``.  Empty buckets are skipped.
    """
    from repro.histograms.buckets import BucketSpec

    spec = BucketSpec.equi_width(lo, hi, n_buckets)
    bucket_of = spec.bucket_indices(values)
    item_ids = relation.item_ids()
    total = OpCost()
    for bucket in range(n_buckets):
        mask = bucket_of == bucket
        if not mask.any():
            continue
        total.add(
            populate_metric(
                dhs,
                metric_of(relation.name, bucket),
                item_ids[mask],
                seed=derive_seed(seed, seed_label, bucket),
                now=now,
            )
        )
    return total


def populate_histogram_metrics(
    dhs: DistributedHashSketch,
    relation: Relation,
    n_buckets: int,
    seed: int = 0,
    now: int = 0,
) -> OpCost:
    """Insert a relation's tuples under per-bucket metrics (section 4.3)."""
    return _populate_buckets(
        dhs, relation, relation.values, relation.domain[0], relation.domain[1],
        n_buckets, bucket_metric, "bucket", seed, now,
    )


def filter_bucket_metric(relation_name: str, bucket: int) -> Hashable:
    """The DHS metric id of one filter-attribute histogram bucket."""
    return (relation_name, "hist_b", bucket)


def populate_filter_histogram_metrics(
    dhs: DistributedHashSketch,
    relation: Relation,
    n_buckets: int,
    seed: int = 0,
    now: int = 0,
) -> OpCost:
    """Insert tuples under per-bucket metrics of the filter attribute."""
    if relation.filter_values is None:
        raise ValueError(f"relation {relation.name!r} has no filter attribute")
    return _populate_buckets(
        dhs, relation, relation.filter_values,
        relation.filter_domain[0], relation.filter_domain[1],
        n_buckets, filter_bucket_metric, "filter-bucket", seed, now,
    )


@dataclass
class CountSample:
    """Aggregated counting statistics over repeated trials."""

    estimates: List[float] = field(default_factory=list)
    truths: List[float] = field(default_factory=list)
    hops: List[int] = field(default_factory=list)
    nodes_visited: List[int] = field(default_factory=list)
    bytes: List[float] = field(default_factory=list)
    lookups: List[int] = field(default_factory=list)

    def mean_hops(self) -> float:
        return sum(self.hops) / len(self.hops)

    def mean_nodes(self) -> float:
        return sum(self.nodes_visited) / len(self.nodes_visited)

    def mean_bytes(self) -> float:
        return sum(self.bytes) / len(self.bytes)

    def mean_abs_rel_error(self) -> float:
        return sum(
            abs(e / t - 1.0) for e, t in zip(self.estimates, self.truths)
        ) / len(self.estimates)

    def mean_rel_bias(self) -> float:
        return sum(e / t - 1.0 for e, t in zip(self.estimates, self.truths)) / len(
            self.estimates
        )


def sample_counts(
    dhs: DistributedHashSketch,
    metric_truths: Dict[Hashable, float],
    trials: int = 8,
    seed: int = 0,
    now: int = 0,
    metrics_per_count: Optional[Sequence[Hashable]] = None,
) -> CountSample:
    """Run repeated counts from random querying nodes and aggregate.

    Each trial picks a random origin node (as the paper does), counts
    every metric in ``metric_truths`` one at a time — or all at once
    when ``metrics_per_count`` is given — and records cost and accuracy.
    """
    rng = rng_for(seed, "count-origins")
    sample = CountSample()
    for _ in range(trials):
        origin = dhs.dht.random_live_node(rng)
        if metrics_per_count is not None:
            result = dhs.count_many(list(metrics_per_count), origin=origin, now=now)
            sample.hops.append(result.cost.hops)
            sample.nodes_visited.append(result.unique_probed)
            sample.bytes.append(result.cost.bytes)
            sample.lookups.append(result.cost.lookups)
            for metric, truth in metric_truths.items():
                if metric in result.estimates and truth > 0:
                    sample.estimates.append(result.estimates[metric])
                    sample.truths.append(truth)
        else:
            for metric, truth in metric_truths.items():
                result = dhs.count(metric, origin=origin, now=now)
                sample.hops.append(result.cost.hops)
                sample.nodes_visited.append(result.unique_probed)
                sample.bytes.append(result.cost.bytes)
                sample.lookups.append(result.cost.lookups)
                if truth > 0:
                    sample.estimates.append(result.estimate())
                    sample.truths.append(truth)
    return sample


def count_both(
    ring: ChordRing,
    config: DHSConfig,
    relations: Sequence[Relation],
    seed: int,
    trials: int,
    *path: Hashable,
) -> Tuple[DistributedHashSketch, Dict[str, CountSample]]:
    """Populate ``relations`` once, then count them with each estimator.

    Every sub-seed is ``derive_seed(seed, <label>, *path)``, so ``path``
    names the cell's deployment.  Returns the writer and one
    ``trials``-count sample per estimator over the same stored bits.
    """
    writer = DistributedHashSketch(
        ring, config, seed=derive_seed(seed, "writer", *path)
    )
    for relation in relations:
        populate_relation(writer, relation, seed=derive_seed(seed, "load", *path))
    truths = {relation.name: float(relation.size) for relation in relations}
    samples: Dict[str, CountSample] = {}
    for estimator in ("sll", "pcsa"):
        counter = DistributedHashSketch(
            ring,
            replace(config, estimator=estimator),
            seed=derive_seed(seed, "counter", *path, estimator),
        )
        samples[estimator] = sample_counts(
            counter, truths, trials=trials, seed=derive_seed(seed, "origins", *path)
        )
    return writer, samples
