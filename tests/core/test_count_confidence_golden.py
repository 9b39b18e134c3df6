"""Golden per-metric confidence and estimates of 100-metric counts.

A count discounts each metric whose bitmaps an exhausted interval left
unresolved by that interval's eq. 5 success probability, in interval
order, so a metric's ``confidence`` is a product of floats whose value
depends on the order of its factors.  These cases pin every metric's
``confidence`` and every estimate of whole-histogram counts (100
bucket metrics, two blocks of the metric table) on a 64-node Chord
ring at ``m = 128``, and of a one-metric count after them: super-LogLog
at a fixed ``lim = 5`` and at ``lim = 1`` (a dozen exhausted intervals
a count, whose factors give a different float in another order), and
PCSA under the eq. 6 policy.  Under eq. 6 the budget reaches the whole
of an interval whenever the prior spreads fewer items than that over
it, so the PCSA case runs ``lim = 1`` (a budget cap of 8 probes) and
passes small priors explicitly to exhaust intervals with a probability
below one; its prior-less count, whose bootstrap pass sets the prior,
keeps every confidence at 1.0.

Confidence is pinned value by value: ``levels`` lists a count's
distinct confidence values and ``lanes`` gives each metric, in request
order, the index of its value there.  Estimates are pinned by the
SHA-256 of their ``repr`` in request order.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.histograms.buckets import BucketSpec
from repro.histograms.builder import DHSHistogramBuilder
from repro.overlay.chord import ChordRing

CASES = {
    "sll": dict(estimator="sll", lim=5),
    "sll-lim1": dict(estimator="sll", lim=1),
    "pcsa-eq6": dict(estimator="pcsa", lim=1, lim_policy="eq6"),
}


# (case, count index) -> (exhausted intervals, levels, lanes, estimates digest)
GOLDEN = {
    ('sll', 0): (
        3,
        [0.9927779848037356, 0.9971189682005359, 0.9996089339256287, 1.0],
        '03333033303302330002123301200201200020001000000000'
        '33331031333333003300310012002000000100000000000000',
        '6659e9f8c51d5fb9d82c6a05c07ec96cc80b7ac5009bc36364525a3e25121b29',
    ),
    ('sll', 1): (
        3,
        [0.9927779848037356, 0.9971189682005359, 0.9996089339256287, 1.0],
        '01333231303020311021103300002120001100001000000000'
        '32031002333301011113001112001010010100000000000001',
        'cfa374c06b35646b194747948eaf7165cd68f25e41c79711e0e486257d3659aa',
    ),
    ('sll', 2): (
        3,
        [0.9927779848037356, 0.9971189682005359, 0.9996089339256287, 1.0],
        '00333231303020301020003300001020001000000000000000'
        '32030000333302011113001120000010010000000000000000',
        'fc0cbeb77b882c7114a93618916611158f9bbcdce03d590322182f0d6a13a05e',
    ),
    ('sll', 3): (
        0,
        [1.0],
        '0',
        '7db696c4762c7f6b7bbf1a4259218916a661f3d494718ad3cc5e06db47e78ffc',
    ),
    ('sll-lim1', 0): (
        13,
        [0.13824229474850466, 0.33652863203315064, 0.5126953125],
        '00110000000001000001000000000000000000000000000000'
        '10200000000020000000000000000000000000000000000000',
        '6b2306fd5e06db254577762302fd31057a68fc51e4ca8e6de8c6adacddfe499f',
    ),
    ('sll-lim1', 1): (
        13,
        [0.13824229474850466, 0.21669949200981517, 0.33652863203315064, 0.5126953125],
        '01030200003020310021000200000100000000000000000000'
        '02001001001100000000000010000000000100000000000000',
        '36d957cd10a845c62f2badde4b2340d9e6be8e261770432e2836ef5ccbf688f3',
    ),
    ('sll-lim1', 2): (
        13,
        [0.13824229474850466, 0.21669949200981517, 0.33652863203315064, 0.5126953125],
        '00300011200000001010001000001000000000000000000000'
        '00000000010001011110001100000010010000000000000000',
        '9abe838cfebd746f1c87d8ae2bd5825b1fe14dc366d3af54942f5b96fb0cdc5c',
    ),
    ('sll-lim1', 3): (
        10,
        [0.5126953125],
        '0',
        'e0a03aaa1ab49a1fd44652e7345195eb4fef7307eb6c2e08d52b119cdc021683',
    ),
    ('pcsa-eq6', 0): (
        7,
        [0.6278685556380142, 0.7626953125, 0.8232233047033631, 1.0],
        '12211132111111122123212212112212110211000100001000'
        '11222113123212123221122221112121121201011000101102',
        '8753644012f9bfd208eb15aaba916e642390764372188fdc9c71e9c29911c965',
    ),
    ('pcsa-eq6', 1): (
        7,
        [0.9958553224477251, 0.996828788061066, 0.9990234375, 1.0],
        '12211132111121122132212211112211110211010101001100'
        '11122113123212123221112221112121121201111000001102',
        '262d81526f0857dfcb7ed827751a2746958b0d2191bad350b58c79cec66b9705',
    ),
    ('pcsa-eq6', 2): (
        6,
        [1.0],
        '00000000000000000000000000000000000000000000000000'
        '00000000000000000000000000000000000000000000000000',
        '951e40e0bcc21153dc4911b70e86c4ea43431db5eadca02506cebdb457529991',
    ),
    ('pcsa-eq6', 3): (
        1,
        [0.7626953125],
        '0',
        '37aed087d1cfac1ac1185c1622819ee5100567b178df43d6c00e8a7db4bc244b',
    ),
}


def _deployment(case):
    dht = ChordRing.build(64, bits=32, seed=21)
    config = DHSConfig(key_bits=20, num_bitmaps=128, **CASES[case])
    dhs = DistributedHashSketch(dht, config, seed=8)
    builder = DHSHistogramBuilder(dhs, BucketSpec.equi_width(0.0, 100.0, 100), "R")
    base = 0
    for i, metric in enumerate(builder.all_metrics()):
        size = 1 + (i * 7919) % 4000
        dhs.insert_array(metric, np.arange(base, base + size, dtype=np.int64))
        base += size
    return dht, dhs, builder.all_metrics()


def _counts(case):
    """Three 100-metric counts, then a one-metric count: ``(metrics, result)``."""
    dht, dhs, metrics = _deployment(case)
    origins = list(dht.node_ids())[:4]
    priors = (10.0, 40.0, None) if case == "pcsa-eq6" else (None, None, None)
    for origin, prior in zip(origins, priors):
        yield metrics, dhs.count_many(metrics, origin=origin, expected_items=prior)
    one = metrics[57:58]
    yield one, dhs.count_many(one, origin=origins[3], expected_items=priors[0])


def _pinned(result, metrics):
    levels = sorted(set(result.confidence.values()))
    lanes = "".join(str(levels.index(result.confidence[m])) for m in metrics)
    estimates = [result.estimates[m] for m in metrics]
    digest = hashlib.sha256(repr(estimates).encode()).hexdigest()
    return result.exhausted_intervals, levels, lanes, digest


@pytest.mark.parametrize("case", sorted(CASES))
def test_confidence_and_estimates_match_golden(case):
    for i, (metrics, result) in enumerate(_counts(case)):
        assert list(result.confidence) == metrics
        assert {type(value) for value in result.confidence.values()} == {float}
        assert {type(value) for value in result.estimates.values()} == {float}
        assert _pinned(result, metrics) == GOLDEN[case, i]
