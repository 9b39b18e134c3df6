"""Tests for the eq6 adaptive lim policy, MD4-backed DHS, and
node-population counting."""

import numpy as np
import pytest

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.errors import ConfigurationError
from repro.hashing.family import MD4Hash, MixerHash
from repro.overlay.chord import ChordRing


def make_dhs(n_nodes=64, bits=32, key_bits=16, m=4, seed=3, **kwargs):
    ring = ChordRing.build(n_nodes, bits=bits, seed=seed)
    config = DHSConfig(key_bits=key_bits, num_bitmaps=m, **kwargs)
    return DistributedHashSketch(ring, config, seed=1)


def populate_spread(dhs, metric, items, now=0):
    node_ids = list(dhs.dht.node_ids())
    for i, item in enumerate(items):
        dhs.insert(metric, item, origin=node_ids[i % len(node_ids)], now=now)


class TestConfigValidation:
    def test_lim_policy_values(self):
        assert DHSConfig(lim_policy="eq6").lim_policy == "eq6"
        with pytest.raises(ConfigurationError):
            DHSConfig(lim_policy="adaptive")

    def test_lim_target_p_range(self):
        with pytest.raises(ConfigurationError):
            DHSConfig(lim_target_p=0.0)
        with pytest.raises(ConfigurationError):
            DHSConfig(lim_target_p=1.0)

    def test_hash_family_name_values(self):
        assert DHSConfig(hash_family_name="md4").hash_family_name == "md4"
        with pytest.raises(ConfigurationError):
            DHSConfig(hash_family_name="sha1")


class TestEq6Policy:
    def test_accurate_prior_beats_starved_fixed_lim(self):
        """With a tiny fixed lim PCSA collapses; the eq6 policy sizes the
        budget from the prior and recovers the estimate."""
        items = list(range(2000))
        fixed = make_dhs(n_nodes=128, m=16, estimator="pcsa", lim=1)
        adaptive = make_dhs(
            n_nodes=128, m=16, estimator="pcsa", lim=8, lim_policy="eq6"
        )
        populate_spread(fixed, "docs", items)
        populate_spread(adaptive, "docs", items)
        fixed_est = fixed.count("docs").estimate()
        adaptive_est = adaptive.count("docs", expected_items=2000.0).estimate()
        truth = 2000
        assert abs(adaptive_est - truth) / truth < abs(fixed_est - truth) / truth + 0.05

    def test_bootstrap_when_no_prior(self):
        dhs = make_dhs(n_nodes=64, m=4, lim=5, lim_policy="eq6")
        populate_spread(dhs, "docs", range(1000))
        result = dhs.count("docs")  # no prior: triggers bootstrap pass
        assert result.estimate() > 0
        # Bootstrap cost is folded in: at least two scans' lookups.
        assert result.cost.lookups >= 2
        # ... and so is what the bootstrap visited: on this drop-free
        # ring every scanned interval paid exactly one lookup.
        assert result.cost.lookups == result.intervals_scanned
        assert result.probes >= result.intervals_scanned

    def test_traced_count_lists_the_bootstrap_pass_first(self):
        """Both traced visit lists give the bootstrap pass, then the main
        pass, each exactly as a twin deployment walks it on its own."""

        def deployment():
            ring = ChordRing.build(512, bits=32, seed=3, trace=True)
            config = DHSConfig(key_bits=20, num_bitmaps=16, lim_policy="eq6")
            dhs = DistributedHashSketch(ring, config, seed=1)
            dhs.insert_array("docs", np.arange(20_000, dtype=np.int64))
            return dhs

        dhs, twin = deployment(), deployment()
        origin = dhs.dht.node_ids()[5]
        result = dhs.count("docs", origin=origin)
        counter = twin._counter
        bootstrap = counter._run_scan(
            ["docs"], origin, 0, expected_items=None, force_fixed=True
        )
        main = counter._run_scan(
            ["docs"], origin, 0, expected_items=bootstrap.estimates["docs"]
        )
        assert bootstrap.cost.nodes_visited and main.cost.nodes_visited
        assert result.cost.nodes_visited == (
            bootstrap.cost.nodes_visited + main.cost.nodes_visited
        )
        assert result.probed_nodes == bootstrap.probed_nodes + main.probed_nodes
        assert result.cost.bytes == bootstrap.cost.bytes + main.cost.bytes
        assert result.estimates == main.estimates

    def test_prior_skips_bootstrap(self):
        dhs = make_dhs(n_nodes=64, m=4, lim=5, lim_policy="eq6")
        populate_spread(dhs, "docs", range(1000))
        with_prior = dhs.count("docs", expected_items=1000.0)
        without = dhs.count("docs")
        assert with_prior.cost.lookups < without.cost.lookups

    def test_fixed_policy_ignores_prior(self):
        dhs = make_dhs(n_nodes=64, m=4, lim=5)
        populate_spread(dhs, "docs", range(500))
        a = dhs.count("docs", origin=dhs.dht.node_ids()[0])
        b = dhs.count("docs", origin=dhs.dht.node_ids()[0], expected_items=500.0)
        # Same policy, same budget: identical estimates modulo the RNG
        # stream position — compare probe counts per interval instead.
        assert a.intervals_scanned == b.intervals_scanned

    def test_budget_bounded(self):
        dhs = make_dhs(n_nodes=64, m=4, lim=5, lim_policy="eq6")
        populate_spread(dhs, "docs", range(100))
        result = dhs.count("docs", expected_items=1.0)  # absurdly sparse prior
        # Budget is capped at 8 * lim per interval.
        assert result.probes <= 8 * 5 * result.intervals_scanned


class TestMD4BackedDHS:
    def test_md4_hash_family_used(self):
        dhs = make_dhs(hash_family_name="md4")
        assert isinstance(dhs.hash_family, MD4Hash)
        assert isinstance(make_dhs().hash_family, MixerHash)

    def test_md4_end_to_end(self):
        dhs = make_dhs(n_nodes=64, m=4, lim=70, hash_family_name="md4")
        items = list(range(800))
        populate_spread(dhs, "docs", items)
        local = dhs.local_sketch(items)
        result = dhs.count("docs")
        assert result.estimate() == pytest.approx(local.estimate())

    def test_md4_populate_helper(self):
        """The fast populate helper must fall back to the scalar path."""
        import numpy as np

        from repro.experiments.common import populate_metric

        dhs = make_dhs(n_nodes=32, m=4, lim=40, hash_family_name="md4")
        populate_metric(dhs, "docs", np.arange(500, dtype=np.int64), seed=2)
        local = dhs.local_sketch(range(500))
        assert dhs.count("docs").estimate() == pytest.approx(local.estimate())


class TestNodePopulation:
    def test_count_nodes(self):
        dhs = make_dhs(n_nodes=100, m=16, lim=70)
        dhs.register_nodes()
        result = dhs.count_nodes()
        assert result.estimate() == pytest.approx(100, rel=0.6)

    def test_population_tracks_churn(self):
        dhs = make_dhs(n_nodes=100, m=16, lim=70, ttl=10)
        dhs.register_nodes(now=0)
        before = dhs.count_nodes(now=0).estimate()
        # Half the nodes fail; the survivors re-register next round.
        from repro.overlay.failures import fail_fraction

        fail_fraction(dhs.dht, 0.5, seed=1)
        dhs.register_nodes(now=20)  # previous entries have expired
        after = dhs.count_nodes(now=20).estimate()
        assert after < before
        assert after == pytest.approx(50, rel=0.7)
