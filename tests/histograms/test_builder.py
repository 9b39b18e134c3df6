"""Integration tests: histograms built over a live DHS deployment."""

import pytest

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.histograms.buckets import BucketSpec
from repro.histograms.builder import DHSHistogramBuilder
from repro.histograms.histogram import Histogram
from repro.overlay.chord import ChordRing
from repro.sim.seeds import rng_for
from tests.histograms.recording import record_pairs

import numpy as np


@pytest.fixture(scope="module")
def deployment():
    """A small DHS with one relation's histogram recorded."""
    ring = ChordRing.build(64, bits=32, seed=3)
    config = DHSConfig(key_bits=16, num_bitmaps=4, lim=70)
    dhs = DistributedHashSketch(ring, config, seed=1)
    spec = BucketSpec.equi_width(1, 100, 5)
    builder = DHSHistogramBuilder(dhs, spec, "sales")
    rng = rng_for(7, "values")
    values = [rng.randrange(1, 101) for _ in range(1200)]
    node_ids = list(ring.node_ids())
    pairs = [(i, values[i]) for i in range(len(values))]
    # Record from many origins so bit copies spread over the intervals.
    for start in range(0, len(pairs), 40):
        origin = node_ids[(start // 40) % len(node_ids)]
        record_pairs(builder, pairs[start : start + 40], origin=origin)
    return dhs, builder, spec, np.array(values)


class TestRecording:
    def test_metric_naming(self, deployment):
        _, builder, _, _ = deployment
        assert builder.metric_for_bucket(0) == ("sales", "hist", 0)
        assert len(builder.all_metrics()) == 5

    def test_record_single(self, deployment):
        dhs, _, spec, _ = deployment
        builder = DHSHistogramBuilder(dhs, spec, "other")
        cost = builder.record(item=1, value=50)
        assert cost.hops >= 1

    def test_record_rejects_out_of_domain(self, deployment):
        _, builder, _, _ = deployment
        from repro.errors import HistogramError

        with pytest.raises(HistogramError):
            builder.record(item=1, value=0)


class TestReconstruction:
    def test_full_reconstruction_accuracy(self, deployment):
        _, builder, spec, values = deployment
        reconstruction = builder.reconstruct()
        truth = Histogram.exact(spec, values)
        # m=4 is coarse (sigma ~ 50%); just demand the same ballpark.
        assert reconstruction.histogram.total == pytest.approx(truth.total, rel=0.8)
        assert reconstruction.histogram.mean_cell_error(truth) < 1.5

    def test_hops_independent_of_bucket_count(self, deployment):
        """Table 3's headline: reconstructing I buckets costs the hops
        of counting one metric."""
        dhs, builder, _, _ = deployment
        origin = dhs.dht.node_ids()[0]
        full = builder.reconstruct(origin=origin)
        single = dhs.count(builder.metric_for_bucket(0), origin=origin)
        # Same scan structure: within a small factor, not x buckets.
        assert full.cost.hops <= 3 * single.cost.hops + 20

    def test_bytes_grow_with_buckets(self, deployment):
        dhs, builder, _, _ = deployment
        origin = dhs.dht.node_ids()[0]
        full = builder.reconstruct(origin=origin)
        single = dhs.count(builder.metric_for_bucket(0), origin=origin)
        assert full.cost.bytes > single.cost.bytes

    def test_partial_reconstruction(self, deployment):
        _, builder, spec, values = deployment
        partial = builder.reconstruct_buckets([1, 3])
        truth = Histogram.exact(spec, values)
        assert partial.histogram.counts[0] == 0.0
        assert partial.histogram.counts[2] == 0.0
        for index in (1, 3):
            assert partial.histogram.counts[index] == pytest.approx(
                truth.counts[index], rel=1.5
            )

    def test_partial_cheaper_than_full(self, deployment):
        _, builder, _, _ = deployment
        full = builder.reconstruct()
        partial = builder.reconstruct_buckets([2])
        assert partial.cost.bytes < full.cost.bytes


class TestBucketIndices:
    """``reconstruct_buckets`` rejects an index outside ``[0, n_buckets)``
    before it counts: ``-1`` used to count a never-written metric and
    write its zero into the last bucket, ``n_buckets`` to pay for a count
    and then raise ``IndexError``."""

    @pytest.mark.parametrize("indices", [[-1], [5], [0, 5], [2, -3]])
    def test_out_of_range_index_raises_before_any_count(self, indices):
        ring = ChordRing.build(32, bits=32, seed=1)
        dhs = DistributedHashSketch(ring, DHSConfig(num_bitmaps=16), seed=1)
        builder = DHSHistogramBuilder(dhs, BucketSpec.equi_width(1, 100, 5), "sales")
        with pytest.raises(ValueError, match="bucket index"):
            builder.reconstruct_buckets(indices)
        assert ring.load.counts() == {}

    def test_indices_may_be_any_iterable(self, deployment):
        _, builder, _, _ = deployment
        partial = builder.reconstruct_buckets(iter([3, 1, 3]))
        assert partial.histogram.counts[0] == partial.histogram.counts[2] == 0.0
        assert partial.histogram.counts[1] > 0 and partial.histogram.counts[3] > 0
