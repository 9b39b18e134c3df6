"""Ablation experiments for the design choices DESIGN.md calls out.

The ``ablations`` entry runs four studies, each its own result file and
its own param dict:

* ``retries`` — the retry budget ``lim`` (section 4.1): more probes per
  interval buy accuracy with a linear hop surcharge.  Every cell
  rebuilds the same populated overlay from the same sub-seeds, so only
  the counting configuration varies; the defaults sit in the sensitive
  regime (``alpha = n/(2mN) < 1``) with the PCSA scan order, where the
  budget visibly buys accuracy — the trade-off eq. 6 models.
* ``replication`` — replication degree ``R`` under crashes of a
  ``failure_fraction`` of the nodes (section 3.5): replicas restore
  accuracy lost to crashes.  PCSA in a sparse-copy regime, where each
  logical bit has few copies (super-LogLog's truncation rule discards
  the largest registers, which makes it insensitive to losing rare
  high-bit copies).
* ``bitshift`` — the bit-shift mapping ``b`` (section 3.5): skipping the
  first ``b`` positions cuts write traffic while keeping estimates
  usable for cardinalities above ``2^b``.
* ``overlays`` — the same DHS deployment over Chord, Kademlia and
  Pastry: the DHT-agnosticism claim, measured.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.errors import ConfigurationError
from repro.experiments.common import (
    Experiment,
    Params,
    Row,
    populate_metric,
    sample_counts,
)
from repro.experiments.report import Render, table
from repro.overlay.chord import ChordRing
from repro.overlay.dht import DHTProtocol
from repro.overlay.failures import fail_fraction
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.pastry import PastryOverlay
from repro.sim.parallel import TrialSpec
from repro.sim.seeds import derive_seed

__all__ = ["ABLATIONS"]


def _measure(
    dhs: DistributedHashSketch,
    label: str,
    n_items: int,
    trials: int,
    seed: int,
    extra: Optional[float] = None,
) -> Row:
    """Count ``docs`` from ``trials`` random origins drawn under ``seed``.

    ``extra`` defaults to the mean number of nodes a count visited.
    """
    sample = sample_counts(dhs, {"docs": float(n_items)}, trials=trials, seed=seed)
    return dict(
        label=label,
        error_pct=100 * sample.mean_abs_rel_error(),
        hops=sample.mean_hops(),
        bytes_kb=sample.mean_bytes() / 1024,
        extra=sample.mean_nodes() if extra is None else extra,
    )


def _lim_cell(
    seed: int,
    *,
    lim: int,
    n_nodes: int,
    n_items: int,
    num_bitmaps: int,
    estimator: str,
    trials: int,
) -> Row:
    """One probe budget; the rebuilt deployment is seed-identical."""
    ring = ChordRing.build(n_nodes, seed=derive_seed(seed, "ring"))
    writer = DistributedHashSketch(
        ring, DHSConfig(num_bitmaps=num_bitmaps, hash_seed=seed), seed=seed
    )
    items = np.arange(n_items, dtype=np.int64)
    populate_metric(writer, "docs", items, seed=derive_seed(seed, "load"))
    counter = DistributedHashSketch(
        ring,
        DHSConfig(
            num_bitmaps=num_bitmaps, lim=lim, hash_seed=seed, estimator=estimator
        ),
        seed=derive_seed(seed, "counter", lim),
    )
    origins = derive_seed(seed, "origins", lim)
    return _measure(counter, f"lim={lim}", n_items, trials, origins)


def _replication_cell(
    seed: int,
    *,
    degree: int,
    failure_fraction: float,
    n_nodes: int,
    n_items: int,
    num_bitmaps: int,
    estimator: str,
    trials: int,
) -> Row:
    """One replication degree: populate, crash a fraction, count."""
    items = np.arange(n_items, dtype=np.int64)
    ring = ChordRing.build(n_nodes, seed=derive_seed(seed, "ring", degree))
    dhs = DistributedHashSketch(
        ring,
        DHSConfig(
            num_bitmaps=num_bitmaps,
            replication=degree,
            hash_seed=seed,
            estimator=estimator,
        ),
        seed=derive_seed(seed, "dhs", degree),
    )
    insert_cost = populate_metric(
        dhs, "docs", items, seed=derive_seed(seed, "load", degree)
    )
    fail_fraction(ring, failure_fraction, seed=derive_seed(seed, "fail", degree))
    origins = derive_seed(seed, "origins", degree)
    hops_per_insert = insert_cost.hops / max(1, insert_cost.lookups)
    return _measure(dhs, f"R={degree}", n_items, trials, origins, hops_per_insert)


def _bitshift_cell(
    seed: int,
    *,
    shift: int,
    n_nodes: int,
    n_items: int,
    num_bitmaps: int,
    trials: int,
) -> Row:
    """One bit-shift value on its own deployment."""
    items = np.arange(n_items, dtype=np.int64)
    ring = ChordRing.build(n_nodes, seed=derive_seed(seed, "ring", shift))
    dhs = DistributedHashSketch(
        ring,
        DHSConfig(num_bitmaps=num_bitmaps, bit_shift=shift, hash_seed=seed),
        seed=derive_seed(seed, "dhs", shift),
    )
    insert_cost = populate_metric(
        dhs, "docs", items, seed=derive_seed(seed, "load", shift)
    )
    origins = derive_seed(seed, "origins", shift)
    insert_kb = insert_cost.bytes / 1024
    return _measure(dhs, f"b={shift}", n_items, trials, origins, insert_kb)


#: overlay name -> (its builder, the label of its ring seed).
_OVERLAYS: Dict[str, Tuple[Callable[..., DHTProtocol], str]] = {
    "chord": (ChordRing.build, "chord"),
    "kademlia": (KademliaOverlay.build, "kad"),
    "pastry": (PastryOverlay.build, "pastry"),
}


def _overlay_cell(
    seed: int,
    *,
    overlay_label: str,
    n_nodes: int,
    n_items: int,
    num_bitmaps: int,
    trials: int,
) -> Row:
    """One overlay family hosting the same DHS deployment."""
    items = np.arange(n_items, dtype=np.int64)
    build, label = _OVERLAYS[overlay_label]
    overlay = build(n_nodes, seed=derive_seed(seed, label))
    dhs = DistributedHashSketch(
        overlay,
        DHSConfig(num_bitmaps=num_bitmaps, hash_seed=seed),
        seed=derive_seed(seed, "dhs", overlay_label),
    )
    populate_metric(dhs, "docs", items, seed=derive_seed(seed, "load", overlay_label))
    origins = derive_seed(seed, "origins", overlay_label)
    return _measure(dhs, overlay_label, n_items, trials, origins)


#: study -> (the param it sweeps, the cell's keyword for one value of it).
_AXES: Dict[str, Tuple[str, str]] = {
    "retries": ("lims", "lim"),
    "replication": ("degrees", "degree"),
    "bitshift": ("shifts", "shift"),
    "overlays": ("overlays", "overlay_label"),
}


def _cells(params: Params) -> List[TrialSpec]:
    """One cell per value of each study's axis, studies in ``_AXES`` order."""
    for name in params["overlays"]["overlays"]:
        if name not in _OVERLAYS:
            raise ConfigurationError(
                f"unknown overlay {name!r}; expected one of {sorted(_OVERLAYS)}"
            )
    sweep: Dict[str, List[Dict[str, Any]]] = {}
    for study, (axis, keyword) in _AXES.items():
        fixed = {key: value for key, value in params[study].items() if key != axis}
        sweep[study] = [{keyword: value, **fixed} for value in params[study][axis]]
    seed = params["seed"]
    # Each cell function is named in its TrialSpec: that is where dhslint
    # finds the worker roots whose shared-state writes it checks.
    return (
        [TrialSpec(fn=_lim_cell, seed=seed, kwargs=kw) for kw in sweep["retries"]]
        + [
            TrialSpec(fn=_replication_cell, seed=seed, kwargs=kw)
            for kw in sweep["replication"]
        ]
        + [
            TrialSpec(fn=_bitshift_cell, seed=seed, kwargs=kw)
            for kw in sweep["bitshift"]
        ]
        + [
            TrialSpec(fn=_overlay_cell, seed=seed, kwargs=kw)
            for kw in sweep["overlays"]
        ]
    )


def _reduce(results: List[Row], params: Params) -> Dict[str, List[Row]]:
    """Each study's rows, in grid order."""
    rows: Dict[str, List[Row]] = {}
    cursor = 0
    for study, (axis, _) in _AXES.items():
        width = len(params[study][axis])
        rows[study] = results[cursor : cursor + width]
        cursor += width
    return rows


def _study(stem: str, title: str, extra_header: str) -> Render:
    """One study's table; ``extra`` is its experiment-specific column."""
    return table(
        stem,
        title,
        [
            ("config", "{label}"),
            ("error %", "{error_pct:.1f}"),
            ("hops", "{hops:.0f}"),
            ("BW (kB)", "{bytes_kb:.1f}"),
            (extra_header, "{extra:.1f}"),
        ],
    )


#: study -> its table; titles are templates over the study's params.
_TABLES = {
    "retries": _study(
        "ablation_retries", "Retry budget ablation (section 4.1)", "nodes visited"
    ),
    "replication": _study(
        "ablation_replication",
        "Replication under {failure_fraction:.0%} crashes (section 3.5)",
        "hops/insert",
    ),
    "bitshift": _study(
        "ablation_bitshift", "Bit-shift mapping ablation (section 3.5)", "insert kB"
    ),
    "overlays": _study("overlay_agnosticism", "DHS over {names}", "nodes visited"),
}


def _render(rows: Dict[str, List[Row]], params: Params) -> Dict[str, str]:
    """Every study's table, its title filled from the study's params."""
    names = " vs ".join(name.capitalize() for name in params["overlays"]["overlays"])
    texts: Dict[str, str] = {}
    for study, render in _TABLES.items():
        texts.update(render(rows[study], {**params[study], "names": names}))
    return texts


ABLATIONS = Experiment(
    name="ablations",
    description="lim / replication / bit-shift / overlay ablations",
    results=(
        "ablation_retries",
        "ablation_replication",
        "ablation_bitshift",
        "overlay_agnosticism",
    ),
    params=dict(
        seed=1,
        retries=dict(
            lims=(1, 2, 5, 10),
            n_nodes=256,
            n_items=200_000,
            num_bitmaps=512,
            estimator="pcsa",
            trials=3,
        ),
        replication=dict(
            degrees=(0, 2, 4),
            failure_fraction=0.25,
            n_nodes=256,
            n_items=50_000,
            num_bitmaps=512,
            estimator="pcsa",
            trials=3,
        ),
        bitshift=dict(
            shifts=(0, 2, 4),
            n_nodes=128,
            n_items=200_000,
            num_bitmaps=64,
            trials=3,
        ),
        overlays=dict(
            overlays=("chord", "kademlia", "pastry"),
            n_nodes=128,
            n_items=200_000,
            num_bitmaps=256,
            trials=3,
        ),
    ),
    cells=_cells,
    reduce=_reduce,
    render=_render,
)
