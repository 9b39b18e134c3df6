"""Tests for deterministic seed derivation."""

import pytest

from repro.sim.seeds import derive_seed, rng_for


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "overlay") == derive_seed(1, "overlay")

    def test_label_paths_distinct(self):
        assert derive_seed(1, "overlay") != derive_seed(1, "workload")
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_master_seed_matters(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_int_labels(self):
        assert derive_seed(1, 5) != derive_seed(1, 6)

    def test_mixed_labels(self):
        assert derive_seed(1, "trial", 3) == derive_seed(1, "trial", 3)

    def test_rejects_bad_label_type(self):
        with pytest.raises(TypeError):
            derive_seed(1, 3.5)

    def test_no_trivial_collisions(self):
        seeds = {derive_seed(0, "label", i) for i in range(10_000)}
        assert len(seeds) == 10_000


class TestRngFor:
    def test_streams_reproducible(self):
        a = rng_for(7, "stream")
        b = rng_for(7, "stream")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_independent(self):
        a = rng_for(7, "s1")
        b = rng_for(7, "s2")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]
