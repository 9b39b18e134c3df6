"""Tests for DHSConfig validation and derived properties."""

import pytest

from repro.core.config import DEFAULT_LIM, DHSConfig
from repro.errors import ConfigurationError
from repro.sketches import PCSASketch, SuperLogLogSketch


class TestDefaults:
    def test_paper_defaults(self):
        config = DHSConfig()
        assert config.key_bits == 24
        assert config.num_bitmaps == 512
        assert config.estimator == "sll"
        assert config.lim == DEFAULT_LIM == 5
        assert config.replication == 0
        assert config.bit_shift == 0
        assert config.ttl is None

    def test_derived_bits(self):
        config = DHSConfig(key_bits=24, num_bitmaps=512)
        assert config.selector_bits == 9
        assert config.position_bits == 15

    def test_single_bitmap(self):
        config = DHSConfig(num_bitmaps=1)
        assert config.selector_bits == 0
        assert config.position_bits == 24


class TestValidation:
    def test_m_power_of_two(self):
        with pytest.raises(ConfigurationError):
            DHSConfig(num_bitmaps=300)

    def test_m_positive(self):
        with pytest.raises(ConfigurationError):
            DHSConfig(num_bitmaps=0)

    def test_unknown_estimator(self):
        with pytest.raises(ConfigurationError):
            DHSConfig(estimator="fm2006")

    @pytest.mark.parametrize("name", ["hll", "loglog"])
    def test_only_the_papers_two_estimators(self, name):
        with pytest.raises(ConfigurationError, match=r"\['pcsa', 'sll'\]"):
            DHSConfig(estimator=name)

    def test_key_bits_vs_selector(self):
        with pytest.raises(ConfigurationError):
            DHSConfig(key_bits=9, num_bitmaps=512)

    def test_lim_positive(self):
        with pytest.raises(ConfigurationError):
            DHSConfig(lim=0)

    def test_replication_nonnegative(self):
        with pytest.raises(ConfigurationError):
            DHSConfig(replication=-1)

    def test_bit_shift_range(self):
        with pytest.raises(ConfigurationError):
            DHSConfig(bit_shift=-1)
        with pytest.raises(ConfigurationError):
            DHSConfig(key_bits=24, num_bitmaps=512, bit_shift=15)
        assert DHSConfig(bit_shift=14).bit_shift == 14

    def test_ttl_positive_or_none(self):
        with pytest.raises(ConfigurationError):
            DHSConfig(ttl=0)
        assert DHSConfig(ttl=10).ttl == 10

    def test_unknown_store_rejected(self):
        with pytest.raises(ConfigurationError):
            DHSConfig(store="bogus")


class TestFactories:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("pcsa", PCSASketch),
            ("sll", SuperLogLogSketch),
        ],
    )
    def test_sketch_class(self, name, cls):
        assert DHSConfig(estimator=name).sketch_class() is cls

    def test_make_sketch_parameters(self):
        config = DHSConfig(key_bits=20, num_bitmaps=64)
        sketch = config.make_sketch(config.hash_family(64))
        assert sketch.m == 64
        assert sketch.key_bits == 20

    def test_hash_family_uses_seed(self):
        a = DHSConfig(hash_seed=1).hash_family(64)
        b = DHSConfig(hash_seed=2).hash_family(64)
        assert a("x") != b("x")

    def test_expiry(self):
        assert DHSConfig(ttl=10).expiry(now=5) == 15
        assert DHSConfig().expiry(now=5) is None


class TestEq3Capacity:
    def test_paper_default_capacity(self):
        # k=24, m=512: 15 position bits -> 512 * 2^12 = 2,097,152.
        config = DHSConfig()
        assert config.max_supported_cardinality == 512 * 2**12

    def test_paper_relation_T_exceeds_its_own_config(self):
        # The paper's 80M-tuple relation T violates eq. 3 at k=24, m=512.
        assert 80_000_000 > DHSConfig().max_supported_cardinality

    def test_wider_keys_restore_capacity(self):
        assert 80_000_000 <= DHSConfig(key_bits=32).max_supported_cardinality

    def test_supports_boundary(self):
        # k=20, m=16: 16 position bits -> 16 * 2^13 = 131,072.
        config = DHSConfig(key_bits=20, num_bitmaps=16)
        assert config.max_supported_cardinality == 16 * 2**13
