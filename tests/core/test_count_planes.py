"""A count estimates from bit planes and rebuilds sketches only when read."""

import pickle
import random

import numpy as np
import pytest

from repro.core.config import DHSConfig
from repro.core.count import CountResult, _lane_popcounts
from repro.core.dhs import DistributedHashSketch
from repro.overlay.chord import ChordRing
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.pastry import PastryOverlay
from repro.overlay.stats import OpCost
from repro.sketches import SKETCH_TYPES
from repro.sketches.base import HashSketch

ESTIMATORS = ["sll", "pcsa"]
METRICS = ["a", "b", "never-written"]


def state_of(sketch):
    return sketch.registers() if hasattr(sketch, "registers") else sketch.bitmaps()


def counted(estimator, bit_shift=0, lim=3):
    """Count three metrics (one empty) on a ring where ``lim`` loses bits."""
    ring = ChordRing.build(48, bits=32, seed=3)
    dhs = DistributedHashSketch(
        ring,
        DHSConfig(key_bits=16, num_bitmaps=8, estimator=estimator,
                  bit_shift=bit_shift, lim=lim),
        seed=1,
    )
    node_ids = list(ring.node_ids())
    for i in range(900):
        dhs.insert("a", i, origin=node_ids[i % len(node_ids)])
        if i % 3 == 0:
            dhs.insert("b", i, origin=node_ids[i % len(node_ids)])
    return dhs.count_many(METRICS)


@pytest.fixture
def record_mask_calls(monkeypatch):
    """Count every ``record_mask`` call on any sketch class."""
    calls = []
    for cls in {HashSketch, *SKETCH_TYPES.values()}:
        if "record_mask" in vars(cls):
            original = vars(cls)["record_mask"]

            def spy(self, vectors, position, _original=original):
                calls.append(position)
                return _original(self, vectors, position)

            monkeypatch.setattr(cls, "record_mask", spy)
    return calls


@pytest.mark.parametrize("bit_shift", [0, 2])
@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_counting_builds_no_sketch_until_sketches_is_read(
    estimator, bit_shift, record_mask_calls
):
    result = counted(estimator, bit_shift)
    assert record_mask_calls == []
    assert result.estimates["a"] > result.estimates["b"] > 0.0
    for metric in METRICS:
        # The rebuilt sketch holds exactly the state the estimate used.
        assert result.sketches[metric].estimate() == result.estimates[metric]
    assert record_mask_calls
    rebuilt = len(record_mask_calls)
    assert result.sketches["a"] is result.sketches["a"]
    assert len(record_mask_calls) == rebuilt  # built once, then cached


@pytest.mark.parametrize("bit_shift", [0, 2])
@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_lazy_sketches_are_a_read_only_mapping_over_the_metrics(estimator, bit_shift):
    result = counted(estimator, bit_shift)
    assert list(result.sketches) == METRICS
    assert len(result.sketches) == len(METRICS)
    assert "a" in result.sketches and "z" not in result.sketches
    with pytest.raises(KeyError):
        result.sketches["z"]
    empty = result.sketches["never-written"]
    # Below the shift every bit is assumed set, written or not.
    assert empty.is_empty() == (bit_shift == 0)


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_exhaustive_budget_rebuilds_the_lossless_sketch(estimator):
    result = counted(estimator, lim=60)
    ring = ChordRing.build(48, bits=32, seed=3)
    local = DistributedHashSketch(
        ring, DHSConfig(key_bits=16, num_bitmaps=8, estimator=estimator), seed=1
    ).local_sketch(range(900))
    if estimator == "pcsa":
        assert result.sketches["a"].observables() == local.observables()
    else:
        assert state_of(result.sketches["a"]) == state_of(local)
    assert result.estimates["a"] == local.estimate()


def test_result_constructs_with_plain_dicts():
    result = CountResult(estimates={}, sketches={}, cost=OpCost())
    assert result.sketches == {}
    assert result.probes == 0 and not result.degraded


@pytest.mark.parametrize("read_first", [False, True])
@pytest.mark.parametrize("estimator", ["sll", "pcsa"])
def test_result_survives_pickling(estimator, read_first):
    """A trial returning its result has ``run_trials`` pickle it back."""
    result = counted(estimator, bit_shift=2)
    if read_first:
        state_of(result.sketches["a"])
    clone = pickle.loads(pickle.dumps(result))
    assert clone.estimates == result.estimates
    assert clone.cost == result.cost
    assert list(clone.sketches) == METRICS
    for metric in METRICS:
        assert state_of(clone.sketches[metric]) == state_of(result.sketches[metric])
        assert clone.sketches[metric].estimate() == result.estimates[metric]


def lane_layouts(m, rng):
    """Requested-lane sets of a block: lane 0, a top lane, masked middles."""
    lanes = rng.randint(2, 64)
    middle = rng.sample(range(1, lanes - 1), min(lanes - 2, 5))
    yield lanes, {0}
    yield lanes, {lanes - 1}
    yield lanes, {0, lanes - 1, *middle}
    yield lanes, set(middle) or {lanes - 1}


@pytest.mark.parametrize("swar", [False, True])
@pytest.mark.parametrize("m", [1, 2, 4, 8, 64, 128, 512])
def test_lane_popcounts_equal_bit_count_of_cut_planes(m, swar, monkeypatch):
    if swar:  # numpy < 2.0 has no bitwise_count
        monkeypatch.delattr(np, "bitwise_count", raising=False)
    rng = random.Random(m)
    lane = (1 << m) - 1
    for _ in range(5):
        for lanes, requested in lane_layouts(m, rng):
            # One requested lane stays all zero in every plane.
            silent = rng.choice(sorted(requested))
            planes = [
                sum(
                    rng.getrandbits(m) << (k * m)
                    for k in requested if k != silent and rng.random() < 0.8
                )
                for _ in range(rng.randint(1, 20))
            ]
            counts = _lane_popcounts(planes, lanes, m)
            assert counts.shape == (lanes, len(planes))
            assert counts.dtype == np.int64
            for k in range(lanes):
                cut = [((plane >> (k * m)) & lane).bit_count() for plane in planes]
                assert counts[k].tolist() == cut
            assert counts[silent].tolist() == [0] * len(planes)


OVERLAY_BUILDERS = {
    "chord": ChordRing.build,
    "kademlia": KademliaOverlay.build,
    "pastry": PastryOverlay.build,
}


@pytest.mark.parametrize("m", [4, 128])
@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("overlay", sorted(OVERLAY_BUILDERS))
def test_many_metric_estimates_equal_their_rebuilt_sketches(overlay, estimator, m):
    """100 metrics span two blocks; later requests mask middle lanes and
    read one lane of one block, two of the other."""
    dht = OVERLAY_BUILDERS[overlay](48, bits=32, seed=5)
    config = DHSConfig(key_bits=16, num_bitmaps=m, lim=2, estimator=estimator,
                       bit_shift=2, lim_policy="eq6")
    dhs = DistributedHashSketch(dht, config, seed=2)
    metrics = [f"bucket-{k}" for k in range(100)]
    for k, metric in enumerate(metrics[:-1]):  # the last stays empty
        dhs.insert_array(metric, np.arange(k * 1_000, k * 1_000 + 20 + 13 * k))
    requests = [metrics, metrics[3::7] + metrics[-1:], metrics[7:8] + metrics[70::29]]
    for request in requests:
        result = dhs.count_many(request)
        for metric in request:
            assert result.estimates[metric] == result.sketches[metric].estimate()
