"""Micro-benchmarks: raw sketch operation throughput.

Unlike the table/figure benches (one-shot simulations), these use
pytest-benchmark's statistical timing — the numbers a library user cares
about when sizing an ingest pipeline: items/s into each sketch type,
estimate latency, merge cost, and the vectorized hashing path.
"""

import numpy as np
import pytest

from repro.hashing.family import MixerHash
from repro.hashing.md4 import md4_digest
from repro.hashing.vectorized import observations_np
from repro.sketches import PCSASketch, SuperLogLogSketch

N_ITEMS = 20_000
ALL_SKETCHES = [PCSASketch, SuperLogLogSketch]


@pytest.mark.parametrize("sketch_cls", ALL_SKETCHES, ids=lambda c: c.name)
def test_bench_sketch_insert_throughput(benchmark, sketch_cls):
    items = list(range(N_ITEMS))

    def insert_all():
        sketch = sketch_cls(m=256, hash_family=MixerHash(seed=1))
        sketch.add_all(items)
        return sketch

    sketch = benchmark(insert_all)
    assert not sketch.is_empty()


@pytest.mark.parametrize("sketch_cls", ALL_SKETCHES, ids=lambda c: c.name)
def test_bench_sketch_estimate_latency(benchmark, sketch_cls):
    sketch = sketch_cls(m=1024, hash_family=MixerHash(seed=1))
    sketch.add_all(range(N_ITEMS))
    estimate = benchmark(sketch.estimate)
    assert estimate == pytest.approx(N_ITEMS, rel=0.3)


def test_bench_sketch_merge(benchmark):
    a = SuperLogLogSketch(m=1024, hash_family=MixerHash(seed=1))
    b = SuperLogLogSketch(m=1024, hash_family=MixerHash(seed=1))
    a.add_all(range(0, N_ITEMS))
    b.add_all(range(N_ITEMS, 2 * N_ITEMS))
    merged = benchmark(a.union, b)
    assert merged.estimate() == pytest.approx(2 * N_ITEMS, rel=0.3)


def test_bench_vectorized_hashing(benchmark):
    ids = np.arange(1_000_000, dtype=np.int64)
    vectors, positions = benchmark(observations_np, ids, 512, 24, 1)
    assert vectors.shape == positions.shape == ids.shape


def test_bench_md4_throughput(benchmark):
    blocks = [f"item-{i}".encode() for i in range(2_000)]

    def digest_all():
        return [md4_digest(block) for block in blocks]

    digests = benchmark(digest_all)
    assert len(digests) == 2_000
