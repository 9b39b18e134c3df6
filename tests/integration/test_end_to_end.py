"""End-to-end integration tests across the whole stack."""

import py_compile
import pathlib

import pytest

from repro import (
    ChordRing,
    DHSConfig,
    DistributedHashSketch,
    KademliaOverlay,
)
from repro.histograms.buckets import BucketSpec
from repro.histograms.builder import DHSHistogramBuilder
from repro.histograms.histogram import Histogram
from repro.query.catalog import Catalog
from repro.query.engine import execute_plan
from repro.query.optimizer import optimize
from repro.sim.seeds import rng_for
from repro.workloads.assignment import assign_items
from repro.workloads.multisets import zipf_duplicated_multiset
from repro.workloads.relations import make_relation
from tests.histograms.recording import record_pairs

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)


class TestExamplesCompile:
    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_example_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

    def test_at_least_three_examples(self):
        assert len(EXAMPLES) >= 3


class TestDHSOverKademlia:
    """The DHT-agnosticism claim: DHS runs unchanged over XOR routing."""

    def test_count_over_kademlia(self):
        overlay = KademliaOverlay.build(64, bits=32, seed=5)
        dhs = DistributedHashSketch(
            overlay, DHSConfig(key_bits=16, num_bitmaps=8, lim=70), seed=2
        )
        node_ids = list(overlay.node_ids())
        for i in range(3000):
            dhs.insert("docs", i, origin=node_ids[i % len(node_ids)])
        result = dhs.count("docs")
        assert result.estimate() == pytest.approx(3000, rel=0.6)
        assert result.cost.hops > 0

    def test_same_config_either_overlay(self):
        """Identical DHS code paths on both geometries, similar results."""
        estimates = {}
        for name, overlay in (
            ("chord", ChordRing.build(64, bits=32, seed=5)),
            ("kademlia", KademliaOverlay.build(64, bits=32, seed=5)),
        ):
            dhs = DistributedHashSketch(
                overlay, DHSConfig(key_bits=16, num_bitmaps=8, lim=70), seed=2
            )
            node_ids = list(overlay.node_ids())
            for i in range(3000):
                dhs.insert("docs", i, origin=node_ids[i % len(node_ids)])
            estimates[name] = dhs.count("docs").estimate()
        # Same sketch parameters and hash family => same underlying
        # logical sketch; lossless reads would agree exactly.
        assert estimates["chord"] == pytest.approx(estimates["kademlia"], rel=0.3)


class TestDuplicateScenario:
    def test_file_sharing_pipeline(self):
        """Duplicated documents over many peers count once."""
        ring = ChordRing.build(64, bits=32, seed=9)
        dhs = DistributedHashSketch(
            ring, DHSConfig(key_bits=16, num_bitmaps=16, lim=70), seed=3
        )
        copies = zipf_duplicated_multiset(1500, total=6000, seed=4)
        holdings = assign_items(copies, list(ring.node_ids()), seed=5)
        for node_id, docs in holdings.items():
            dhs.insert_bulk("files", docs, origin=node_id)
        estimate = dhs.count("files").estimate()
        assert estimate == pytest.approx(1500, rel=0.5)
        assert estimate < 3000  # nowhere near the 6000 occurrences


class TestHistogramToOptimizerPipeline:
    def test_dhs_catalog_drives_optimizer(self):
        """The full paper pipeline: relations -> DHS histogram metrics ->
        network reconstruction -> catalog -> join plan -> execution."""
        relations = [
            make_relation("A", 4000, domain=500, seed=1),
            make_relation("B", 8000, domain=500, seed=2),
            make_relation("C", 16000, domain=500, seed=3),
        ]
        by_name = {r.name: r for r in relations}
        spec = BucketSpec.equi_width(1, 500, 8)
        ring = ChordRing.build(64, bits=32, seed=11)
        dhs = DistributedHashSketch(
            ring, DHSConfig(key_bits=16, num_bitmaps=16, lim=70), seed=4
        )
        node_ids = list(ring.node_ids())
        for relation in relations:
            builder = DHSHistogramBuilder(dhs, spec, relation.name)
            pairs = [
                (relation.item_id(i), float(relation.values[i]))
                for i in range(relation.size)
            ]
            for start in range(0, len(pairs), 500):
                origin = node_ids[(start // 500) % len(node_ids)]
                record_pairs(builder, pairs[start : start + 500], origin=origin)

        catalog = Catalog.from_dhs(dhs, relations, spec)
        assert catalog.acquisition_cost.hops > 0

        # Catalog cardinalities approximate the truth.
        for relation in relations:
            assert catalog.entry(relation.name).cardinality == pytest.approx(
                relation.size, rel=0.6
            )

        plan = optimize(catalog, ["A", "B", "C"])
        executed = execute_plan(plan.root, by_name)
        worst = max(
            execute_plan(optimize(Catalog.exact(relations, spec), ["A", "B", "C"]).root, by_name).shipped_bytes,
            1.0,
        )
        # The DHS-informed plan's transfer is within a modest factor of
        # the oracle's (same plan space, estimated statistics).
        assert executed.shipped_bytes <= 3 * worst

    def test_dhs_histogram_matches_exact_shape(self):
        relation = make_relation("D", 12_000, domain=400, seed=7)
        spec = BucketSpec.equi_width(1, 400, 5)
        ring = ChordRing.build(64, bits=32, seed=13)
        dhs = DistributedHashSketch(
            ring, DHSConfig(key_bits=16, num_bitmaps=16, lim=70), seed=5
        )
        builder = DHSHistogramBuilder(dhs, spec, "D")
        node_ids = list(ring.node_ids())
        rng = rng_for(7, "spread")
        pairs = [(relation.item_id(i), float(relation.values[i])) for i in range(relation.size)]
        for start in range(0, len(pairs), 400):
            record_pairs(builder, pairs[start : start + 400], origin=rng.choice(node_ids))
        reconstruction = builder.reconstruct()
        truth = Histogram.exact(spec, relation.values)
        # Zipf data: bucket 0 dominates; the reconstruction must agree
        # on the ordering of dense vs sparse buckets.
        est = reconstruction.histogram.counts
        assert est[0] == max(est)
        assert est[0] == pytest.approx(truth.counts[0], rel=0.5)


class TestSoftStateLifecycle:
    def test_insert_expire_refresh_cycle(self):
        ring = ChordRing.build(32, bits=32, seed=17)
        dhs = DistributedHashSketch(
            ring, DHSConfig(key_bits=16, num_bitmaps=4, lim=40, ttl=20), seed=6
        )
        items = list(range(600))
        node_ids = list(ring.node_ids())
        for i, item in enumerate(items):
            dhs.insert("m", item, origin=node_ids[i % len(node_ids)], now=0)
        alive = dhs.count("m", now=10).estimate()
        dead = dhs.count("m", now=50).estimate()
        dhs.refresh("m", items, now=50)
        revived = dhs.count("m", now=60).estimate()
        assert alive > 0
        assert dead == 0.0
        assert revived == pytest.approx(alive, rel=0.7)


class TestMultiAttributeOverDHS:
    def test_filter_histograms_reconstructed_over_network(self):
        """Full multi-attribute pipeline: both attributes' histograms
        live in the DHS; a querying node reconstructs them and pushes a
        b-predicate below an optimized join."""
        from repro.core.config import DHSConfig
        from repro.core.dhs import DistributedHashSketch
        from repro.experiments.common import (
            populate_filter_histogram_metrics,
            populate_histogram_metrics,
        )
        from repro.overlay.chord import ChordRing
        from repro.query.engine import execute_plan
        from repro.query.optimizer import optimize

        relations = [
            make_relation("A", 6000, domain=500, seed=1, filter_domain=100),
            make_relation("B", 12000, domain=500, seed=2, filter_domain=100),
        ]
        by_name = {r.name: r for r in relations}
        spec = BucketSpec.equi_width(1, 500, 8)
        ring = ChordRing.build(64, seed=15)
        dhs = DistributedHashSketch(
            ring, DHSConfig(num_bitmaps=32, lim=20), seed=6
        )
        for relation in relations:
            populate_histogram_metrics(dhs, relation, 8, seed=3)
            populate_filter_histogram_metrics(dhs, relation, 5, seed=4)

        catalog = Catalog.from_dhs(dhs, relations, spec, filter_buckets=5)
        for relation in relations:
            entry = catalog.entry(relation.name)
            assert entry.filter_histogram is not None
            assert entry.filter_histogram.total == pytest.approx(
                relation.size, rel=0.6
            )

        predicates = {"B": ("b", 1, 20)}
        plan = optimize(catalog, ["A", "B"], predicates=predicates)
        executed = execute_plan(plan.root, by_name, predicates=predicates)
        unfiltered = execute_plan(plan.root, by_name)
        assert executed.rows < unfiltered.rows
