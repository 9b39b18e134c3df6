"""Experiment: Table 3 — histogram building/reconstruction costs.

For each ``m``, the cost for a node to reconstruct a 100-bucket
equi-width histogram of a relation stored in the overlay: nodes visited,
hops, and bandwidth.  The paper's headline is structural: hop count
matches a single-metric count (the bit→interval map is shared across
buckets), while bandwidth scales with the bucket count — ~1.4/1.0 MB at
paper scale.  The entry also runs the bucket-count pair behind that
claim: one ``m``, 10 and 100 buckets, at ``seed + 1``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.experiments.common import (
    Experiment,
    Params,
    Row,
    build_ring,
    populate_histogram_metrics,
)
from repro.experiments.report import table
from repro.histograms.buckets import BucketSpec
from repro.histograms.builder import DHSHistogramBuilder
from repro.histograms.histogram import Histogram
from repro.sim.parallel import TrialSpec
from repro.sim.seeds import derive_seed, rng_for
from repro.workloads.relations import make_relation

__all__ = ["TABLE3", "reconstruct_both"]


def reconstruct_both(
    seed: int,
    *,
    m: int,
    n_nodes: int,
    n_buckets: int,
    n_items: int,
    trials: int,
    origins: str,
) -> Iterator[Tuple[str, DistributedHashSketch, Histogram, List[Any]]]:
    """Store one relation's histogram, rebuild it with each estimator.

    The relation's ``n_buckets`` buckets are stored with ``m`` bitmaps;
    each estimator then reconstructs them ``trials`` times from random
    nodes drawn under the ``origins`` label.  Yields ``(estimator,
    counter, exact histogram, reconstructions)``.
    """
    relation = make_relation("R", n_items, seed=derive_seed(seed, "rel"))
    spec = BucketSpec.equi_width(relation.domain[0], relation.domain[1], n_buckets)
    truth = Histogram.exact(spec, relation.values)
    ring = build_ring(n_nodes, seed=derive_seed(seed, "ring", m))
    writer = DistributedHashSketch(
        ring,
        DHSConfig(num_bitmaps=m, hash_seed=seed),
        seed=derive_seed(seed, "writer", m),
    )
    populate_histogram_metrics(
        writer, relation, n_buckets, seed=derive_seed(seed, "load", m)
    )
    for estimator in ("sll", "pcsa"):
        counter = DistributedHashSketch(
            ring,
            DHSConfig(num_bitmaps=m, hash_seed=seed, estimator=estimator),
            seed=derive_seed(seed, "counter", m, estimator),
        )
        builder = DHSHistogramBuilder(counter, spec, relation.name)
        rng = rng_for(seed, origins, m, estimator)
        runs = [
            builder.reconstruct(origin=ring.random_live_node(rng))
            for _ in range(trials)
        ]
        yield estimator, counter, truth, runs


def _table3_cell(
    seed: int,
    *,
    m: int,
    n_nodes: int,
    n_buckets: int,
    scale: float,
    trials: int,
) -> List[Row]:
    """One ``m``: rebuild the workload, reconstruct with both estimators."""
    n_items = max(2000, int(20_000_000 * scale))
    return [
        dict(
            m=m,
            estimator=estimator,
            nodes_visited=sum(run.count_result.unique_probed for run in runs) / trials,
            hops=sum(run.cost.hops for run in runs) / trials,
            bw_kbytes=sum(run.cost.bytes for run in runs) / trials / 1024,
            mean_cell_error_pct=100
            * sum(run.histogram.mean_cell_error(truth) for run in runs)
            / trials,
        )
        for estimator, _, truth, runs in reconstruct_both(
            seed,
            m=m,
            n_nodes=n_nodes,
            n_buckets=n_buckets,
            n_items=n_items,
            trials=trials,
            origins="hist-origins",
        )
    ]


def _cells(params: Params) -> List[TrialSpec]:
    table = [
        TrialSpec(fn=_table3_cell, seed=params["seed"], kwargs={"m": m})
        for m in params["ms"]
    ]
    pair = [
        TrialSpec(
            fn=_table3_cell,
            seed=params["seed"] + 1,
            kwargs={"m": params["bucket_m"], "n_buckets": n_buckets},
        )
        for n_buckets in params["bucket_counts"]
    ]
    return table + pair


def _reduce(
    results: List[List[Row]], params: Params
) -> Tuple[List[Row], List[Row]]:
    """The table's rows, and the sLL row of each bucket count."""
    split = len(params["ms"])
    table = [row for rows in results[:split] for row in rows]
    pair = [
        row for rows in results[split:] for row in rows if row["estimator"] == "sll"
    ]
    return table, pair


_TABLE = table(
    "table3_histograms",
    "Table 3: histogram reconstruction, sLL/PCSA (scale {scale:g})",
    [
        ("m", "{m}"),
        ("nodes visited", "{sll[nodes_visited]:.0f} / {pcsa[nodes_visited]:.0f}"),
        ("hops", "{sll[hops]:.0f} / {pcsa[hops]:.0f}"),
        ("BW (kBytes)", "{sll[bw_kbytes]:.1f} / {pcsa[bw_kbytes]:.1f}"),
        (
            "cell err (%)",
            "{sll[mean_cell_error_pct]:.1f} / {pcsa[mean_cell_error_pct]:.1f}",
        ),
    ],
    pair="m",
)


def _render(rows: Tuple[List[Row], List[Row]], params: Params) -> Dict[str, str]:
    """The table, and the bucket-count pair's hops and bytes."""
    rows_by_m, pair = rows
    counts = params["bucket_counts"]
    hops = [f"{row['hops']:.0f}" for row in pair]
    kbytes = [f"{row['bw_kbytes']:.1f} kB" for row in pair]
    return {
        **_TABLE(rows_by_m, params),
        "table3_bucket_independence": (
            f"Histogram reconstruction: {' vs '.join(map(str, counts))} buckets "
            f"(m={params['bucket_m']}, sLL)\n"
            f"hops:  {' -> '.join(hops)}\n"
            f"bytes: {' -> '.join(kbytes)}"
        ),
    }


TABLE3 = Experiment(
    name="table3",
    description="Table 3: histogram building costs",
    results=("table3_histograms", "table3_bucket_independence"),
    params=dict(
        seed=1,
        n_nodes=256,
        ms=(128, 256, 512, 1024),
        n_buckets=100,
        scale=1e-2,
        trials=2,
        # Bucket independence: bucket_m bitmaps at each bucket count,
        # run at seed + 1.
        bucket_m=256,
        bucket_counts=(10, 100),
    ),
    cells=_cells,
    reduce=_reduce,
    render=_render,
)
