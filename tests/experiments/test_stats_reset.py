"""Regression tests: per-node access tallies cannot leak between cells.

Every experiment cell that reports load (faultmatrix policy columns, the
Fig. 7 load table) must see tallies from its own operations only.  Two
mechanisms guarantee that and both are pinned here:

* cells rebuild their deployment, so a rebuilt (seed-identical) ring
  starts from an empty :class:`~repro.overlay.stats.LoadTracker` and two
  reruns of the same cell produce identical per-node counts;
* within a cell, phases are separated by an explicit ``reset()`` on the
  tracker (``run_traced_count`` does this between populate and count).
"""

import numpy as np
import pytest

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.experiments.tracing import TraceScenario, run_traced_count
from repro.overlay.chord import ChordRing
from repro.sim.seeds import rng_for

N_NODES = 32
SEED = 11


def build_cell():
    """One experiment cell's deployment, the way every experiment builds it."""
    ring = ChordRing.build(N_NODES, seed=SEED)
    dhs = DistributedHashSketch(
        ring, DHSConfig(num_bitmaps=32, key_bits=16), seed=SEED
    )
    return ring, dhs


def run_cell(dhs):
    """Populate + count: the two phases whose tallies must not mix."""
    dhs.insert_array("docs", np.arange(4000, dtype=np.int64))
    rng = rng_for(SEED, "origins")
    for _ in range(3):
        dhs.count("docs", origin=dhs.dht.random_live_node(rng))


class TestCellIsolation:
    def test_fresh_ring_starts_clean(self):
        ring, _ = build_cell()
        assert ring.load.total == 0
        assert ring.load.counts() == {}

    def test_rebuilt_cell_reproduces_tallies_exactly(self):
        """Two reruns of one cell agree per node — no state carries over."""
        first_ring, first_dhs = build_cell()
        run_cell(first_dhs)
        second_ring, second_dhs = build_cell()
        run_cell(second_dhs)
        assert first_ring.load.total > 0
        assert second_ring.load.counts() == first_ring.load.counts()

    def test_reset_between_phases_isolates_query_load(self):
        """reset() after populate leaves exactly the count-phase tallies."""
        ring, dhs = build_cell()
        dhs.insert_array("docs", np.arange(4000, dtype=np.int64))
        insert_load = ring.load.total
        assert insert_load > 0
        ring.load.reset()
        assert ring.load.total == 0
        rng = rng_for(SEED, "origins")
        for _ in range(3):
            dhs.count("docs", origin=dhs.dht.random_live_node(rng))
        query_counts = ring.load.counts()
        assert ring.load.total > 0

        # The same count phase on a rebuilt cell whose tracker was never
        # polluted by inserts yields the identical per-node map.
        clean_ring, clean_dhs = build_cell()
        clean_dhs.insert_array("docs", np.arange(4000, dtype=np.int64))
        clean_ring.load.reset()
        clean_rng = rng_for(SEED, "origins")
        for _ in range(3):
            clean_dhs.count("docs", origin=clean_dhs.dht.random_live_node(clean_rng))
        assert clean_ring.load.counts() == query_counts


class TestTracedRunLoadTable:
    def test_load_rows_exclude_population(self):
        """run_traced_count's Fig. 7 table shows query load only."""
        run = run_traced_count(TraceScenario(n_nodes=32, n_items=500, trials=2))
        table_total = sum(row.accesses for row in run.load_rows)
        assert table_total > 0
        # The populate phase stores 500 items across 32 nodes: if its
        # tallies leaked, the table total would exceed the trace's whole
        # message budget.  Bound it by the messages the counts recorded.
        messages = sum(
            span.attrs.get("messages", 0)
            for span in run.spans
            if span.name == "dhs.count"
        )
        hops = sum(
            span.attrs.get("hops", 0)
            for span in run.spans
            if span.name == "dhs.count"
        )
        assert table_total <= messages + hops + run.scenario.trials * 64
