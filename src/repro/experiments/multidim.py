"""Experiment: multi-dimension counting cost (section 4.2).

The claim: the hop cost of counting is independent of the number of
bitmaps *and* of the number of metrics counted at once, because the
bit→interval mapping is shared — only response bytes grow.  The driver
sweeps the number of metrics counted in one operation and reports hops
and bytes.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.experiments.common import (
    Experiment,
    Params,
    Row,
    build_ring,
    first,
    populate_metric,
)
from repro.experiments.report import table
from repro.sim.parallel import TrialSpec
from repro.sim.seeds import derive_seed, rng_for

import numpy as np

__all__ = ["MULTIDIM"]


def _run(
    seed: int,
    *,
    metric_counts: Sequence[int],
    n_nodes: int,
    items_per_metric: int,
    num_bitmaps: int,
    trials: int,
) -> List[Row]:
    """Hop/byte cost versus number of metrics per counting operation."""
    ring = build_ring(n_nodes, seed=derive_seed(seed, "ring"))
    dhs = DistributedHashSketch(
        ring,
        DHSConfig(num_bitmaps=num_bitmaps, hash_seed=seed),
        seed=derive_seed(seed, "dhs"),
    )
    max_metrics = max(metric_counts)
    metrics = [("dim", i) for i in range(max_metrics)]
    for i, metric in enumerate(metrics):
        item_base = i * items_per_metric
        populate_metric(
            dhs,
            metric,
            np.arange(item_base, item_base + items_per_metric, dtype=np.int64),
            seed=derive_seed(seed, "load", i),
        )
    rng = rng_for(seed, "origins")
    rows: List[Row] = []
    for count in metric_counts:
        hops, bytes_, lookups = [], [], []
        for _ in range(trials):
            result = dhs.count_many(
                metrics[:count], origin=ring.random_live_node(rng)
            )
            hops.append(result.cost.hops)
            bytes_.append(result.cost.bytes)
            lookups.append(result.cost.lookups)
        rows.append(
            dict(
                metrics=count,
                hops=sum(hops) / trials,
                bytes_kb=sum(bytes_) / trials / 1024,
                lookups=sum(lookups) / trials,
            )
        )
    return rows


def _cells(params: Params) -> List[TrialSpec]:
    return [TrialSpec(fn=_run, seed=params["seed"])]


MULTIDIM = Experiment(
    name="multidim",
    description="§4.2 multi-dimension counting",
    results=("multidim",),
    params=dict(
        seed=1,
        metric_counts=(1, 4, 16, 64),
        n_nodes=128,
        items_per_metric=20_000,
        num_bitmaps=64,
        trials=3,
    ),
    cells=_cells,
    reduce=first,
    render=table(
        "multidim",
        "Multi-dimension counting: cost vs metrics per operation",
        [
            ("metrics", "{metrics}"),
            ("hops", "{hops:.0f}"),
            ("BW (kB)", "{bytes_kb:.1f}"),
            ("DHT lookups", "{lookups:.0f}"),
        ],
    ),
)
