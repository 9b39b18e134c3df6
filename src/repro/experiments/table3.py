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

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.experiments.common import (
    Experiment,
    Params,
    build_ring,
    populate_histogram_metrics,
)
from repro.experiments.report import estimator_pairs, format_rows
from repro.histograms.buckets import BucketSpec
from repro.histograms.builder import DHSHistogramBuilder
from repro.histograms.histogram import Histogram
from repro.sim.parallel import TrialSpec
from repro.sim.seeds import derive_seed, rng_for
from repro.workloads.relations import make_relation

__all__ = ["TABLE3", "Table3Row", "format_table3", "reconstruct_both"]


@dataclass
class Table3Row:
    """One (m, estimator) row of Table 3 plus accuracy diagnostics."""

    m: int
    estimator: str
    nodes_visited: float
    hops: float
    bw_kbytes: float
    mean_cell_error_pct: float


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
) -> List[Table3Row]:
    """One ``m``: rebuild the workload, reconstruct with both estimators."""
    n_items = max(2000, int(20_000_000 * scale))
    return [
        Table3Row(
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


def format_table3(rows: List[Table3Row], scale: float) -> str:
    """Render like the paper's Table 3 (sLL/PCSA pairs) + accuracy."""
    return format_rows(
        f"Table 3: histogram reconstruction, sLL/PCSA (scale {scale:g})",
        [
            ("m", "{0[0]}"),
            ("nodes visited", "{0[1].nodes_visited:.0f} / {0[2].nodes_visited:.0f}"),
            ("hops", "{0[1].hops:.0f} / {0[2].hops:.0f}"),
            ("BW (kBytes)", "{0[1].bw_kbytes:.1f} / {0[2].bw_kbytes:.1f}"),
            (
                "cell err (%)",
                "{0[1].mean_cell_error_pct:.1f} / {0[2].mean_cell_error_pct:.1f}",
            ),
        ],
        estimator_pairs(rows, "m"),
    )


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
    results: List[List[Table3Row]], params: Params
) -> Tuple[List[Table3Row], List[Table3Row]]:
    """The table's rows, and the sLL row of each bucket count."""
    split = len(params["ms"])
    table = [row for rows in results[:split] for row in rows]
    pair = [
        row for rows in results[split:] for row in rows if row.estimator == "sll"
    ]
    return table, pair


def _render(
    rows: Tuple[List[Table3Row], List[Table3Row]], params: Params
) -> Dict[str, str]:
    table, pair = rows
    counts = params["bucket_counts"]
    return {
        "table3_histograms": format_table3(table, params["scale"]),
        "table3_bucket_independence": (
            f"Histogram reconstruction: {' vs '.join(map(str, counts))} buckets "
            f"(m={params['bucket_m']}, sLL)\n"
            f"hops:  {' -> '.join(f'{row.hops:.0f}' for row in pair)}\n"
            f"bytes: {' -> '.join(f'{row.bw_kbytes:.1f} kB' for row in pair)}"
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
