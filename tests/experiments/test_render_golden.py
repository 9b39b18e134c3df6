"""Byte golden of every registry entry's rendered text at tiny params.

Each entry runs serially (``jobs=1``) at the params in ``TINY`` and its
every rendered text, result file or not, must equal the committed
fixture byte for byte.  The CI bench job and the ``benchmarks/results``
drift guard hold the full-size files; this holds the renderers and the
run path in tier-1.  Regenerate deliberately, after checking that the
change is meant to move the text, with::

    PYTHONPATH=src python tests/experiments/test_render_golden.py
"""

import json
import pathlib

import pytest

from repro.experiments.registry import EXPERIMENTS

FIXTURE = pathlib.Path(__file__).parent / "data" / "render_golden.json"

#: name -> overrides: every entry shrunk to a few small cells, every
#: ``scale`` given so ``DHS_SCALE`` cannot move the text.
TINY = {
    "ablations": dict(
        retries=dict(
            lims=(1, 5), n_nodes=16, n_items=2_000, num_bitmaps=16,
            estimator="pcsa", trials=1,
        ),
        replication=dict(
            degrees=(0, 2), failure_fraction=0.25, n_nodes=16, n_items=2_000,
            num_bitmaps=16, estimator="pcsa", trials=1,
        ),
        bitshift=dict(
            shifts=(0, 2), n_nodes=16, n_items=2_000, num_bitmaps=16, trials=1,
        ),
        overlays=dict(
            overlays=("chord", "kademlia", "pastry"), n_nodes=16, n_items=2_000,
            num_bitmaps=16, trials=1,
        ),
    ),
    "accuracy": dict(
        ms=(16, 64), n_nodes=16, scale=1e-4, trials=1, hash_seeds=(0, 1),
    ),
    "baselines": dict(
        n_nodes=16, n_distinct=500, total_items=1_500, num_bitmaps=16,
    ),
    "churn": dict(
        policies=((4, 2), (None, None)), rounds=4, churn_fraction=0.1,
        n_nodes=16, items_per_node=20, num_bitmaps=16,
    ),
    "faultmatrix": dict(
        fault_kinds=("drop", "amnesia"), intensities=(0.3,),
        policies=("none", "retry+repair"), n_nodes=16, n_items=1_000,
        num_bitmaps=16, trials=1,
    ),
    "histogram-accuracy": dict(
        ms=(16,), n_nodes=16, n_buckets=4, n_items=20_000, trials=1,
    ),
    "histogram-types": dict(
        n_nodes=16, n_micro=20, budget=5, n_items=20_000, num_bitmaps=16,
        n_queries=20,
    ),
    "insertion": dict(
        n_nodes=32, num_bitmaps=16, n_buckets=5, scale=1e-4, probe_inserts=50,
    ),
    "multidim": dict(
        metric_counts=(1, 4), n_nodes=16, items_per_metric=500, num_bitmaps=16,
        trials=2,
    ),
    "multitenant": dict(
        node_counts=(32, 16), n_tenants=32, total_ops=512, num_bitmaps=16,
        count_tenants=2, trials=1, scale=1e-2,
    ),
    "query-opt": dict(n_nodes=16, num_bitmaps=16, n_buckets=5, scale=2e-4),
    "robustness": dict(
        failure_fractions=(0.0, 0.3), replications=(0, 2), n_nodes=32,
        n_items=3_000, num_bitmaps=32, trials=1, draws=2,
    ),
    "scalability": dict(
        node_counts=(16, 64), num_bitmaps=16, scale=1e-4, trials=1,
    ),
    "soak": dict(
        ticks=12, fault_every=4, duration=2, n_nodes=16, items_per_tick=20,
        num_bitmaps=16,
        gate=dict(
            fault_kinds=("amnesia",), intensities=(0.3,),
            policies=("retry+readrepair", "retry+repair"), replications=(2,),
            n_nodes=16, n_items=1_000, num_bitmaps=16, estimator="sll",
            trials=1, draws=1,
        ),
    ),
    "table2": dict(n_nodes=16, ms=(16, 64), scale=5e-5, trials=1),
    "table3": dict(
        n_nodes=16, ms=(16,), n_buckets=5, scale=1e-4, trials=1, bucket_m=16,
        bucket_counts=(2, 4),
    ),
    "trace": dict(n_nodes=16, n_items=300, trials=1),
}


def _texts(name):
    entry = EXPERIMENTS[name]
    params = entry.resolve(TINY[name])
    return entry.render(entry.execute(params, 1), params)


def test_every_entry_has_tiny_params():
    assert set(TINY) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_rendered_text_is_pinned(name):
    golden = json.loads(FIXTURE.read_text())
    assert _texts(name) == golden[name]


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({name: _texts(name) for name in sorted(TINY)}, indent=1, ensure_ascii=False)
        + "\n"
    )
