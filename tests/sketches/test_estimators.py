"""Behavioural tests shared by both estimators: duplicate insensitivity,
union semantics, accuracy, serialization."""

import pytest

from repro.hashing.family import MixerHash
from repro.sketches import PCSASketch, SuperLogLogSketch, union_all
from repro.errors import SketchError

ALL_SKETCHES = [PCSASketch, SuperLogLogSketch]


@pytest.fixture(params=ALL_SKETCHES)
def sketch_cls(request):
    return request.param


def make(cls, m=256, seed=0):
    return cls(m=m, hash_family=MixerHash(bits=64, seed=seed))


def state_of(sketch):
    return sketch.registers() if hasattr(sketch, "registers") else sketch.bitmaps()


class TestEmpty:
    def test_empty_estimates_zero(self, sketch_cls):
        assert make(sketch_cls).estimate() == 0.0

    def test_is_empty_flips_on_add(self, sketch_cls):
        sketch = make(sketch_cls)
        assert sketch.is_empty()
        sketch.add("x")
        assert not sketch.is_empty()


class TestDuplicateInsensitivity:
    def test_duplicates_do_not_change_state(self, sketch_cls):
        sketch = make(sketch_cls)
        sketch.add_all(f"doc-{i}" for i in range(500))
        before = state_of(sketch)
        sketch.add_all(f"doc-{i}" for i in range(500))
        assert state_of(sketch) == before

    def test_heavy_multiset(self, sketch_cls):
        """1000 copies of 50 items must estimate ~50, not ~50000."""
        sketch = make(sketch_cls, m=16)
        for _ in range(1000):
            sketch.add_all(range(50))
        assert sketch.estimate() < 500


class TestUnionSemantics:
    def test_union_equals_sketch_of_union(self, sketch_cls):
        a, b = make(sketch_cls), make(sketch_cls)
        both = make(sketch_cls)
        a.add_all(range(0, 600))
        b.add_all(range(400, 1000))
        both.add_all(range(0, 1000))
        assert state_of(a.union(b)) == state_of(both)

    def test_union_is_commutative(self, sketch_cls):
        a, b = make(sketch_cls), make(sketch_cls)
        a.add_all(range(100))
        b.add_all(range(50, 200))
        assert state_of(a.union(b)) == state_of(b.union(a))

    def test_union_is_idempotent(self, sketch_cls):
        a = make(sketch_cls)
        a.add_all(range(300))
        assert state_of(a.union(a)) == state_of(a)

    def test_union_leaves_inputs_unchanged(self, sketch_cls):
        a, b = make(sketch_cls), make(sketch_cls)
        a.add_all(range(100))
        b.add_all(range(100, 200))
        before_a, before_b = state_of(a), state_of(b)
        a.union(b)
        assert state_of(a) == before_a
        assert state_of(b) == before_b

    def test_merge_mutates_receiver(self, sketch_cls):
        a, b = make(sketch_cls), make(sketch_cls)
        b.add_all(range(100))
        a.merge(b)
        assert state_of(a) == state_of(b)

    def test_union_all_many_shards(self, sketch_cls):
        shards = []
        for node in range(10):
            shard = make(sketch_cls)
            shard.add_all(range(node * 100, node * 100 + 150))  # overlapping
            shards.append(shard)
        whole = make(sketch_cls)
        whole.add_all(range(0, 1050))
        assert state_of(union_all(shards)) == state_of(whole)

    def test_union_all_empty_input_raises(self):
        with pytest.raises(SketchError):
            union_all([])

    def test_estimate_union_close_to_truth(self, sketch_cls):
        shards = []
        for node in range(4):
            shard = make(sketch_cls)
            shard.add_all(f"it-{i}" for i in range(node * 2000, node * 2000 + 3000))
            shards.append(shard)
        truth = 9000  # ranges overlap by 1000 each
        assert union_all(shards).estimate() == pytest.approx(truth, rel=0.25)


class TestCopy:
    def test_copy_is_deep(self, sketch_cls):
        a = make(sketch_cls)
        a.add_all(range(50))
        b = a.copy()
        b.add_all(range(50, 5000))
        assert state_of(a) != state_of(b)

    def test_copy_preserves_estimate(self, sketch_cls):
        a = make(sketch_cls)
        a.add_all(range(1234))
        assert a.copy().estimate() == a.estimate()


class TestAccuracy:
    """Estimates should land within a few theoretical standard errors."""

    @pytest.mark.parametrize("n", [1_000, 20_000, 100_000])
    def test_single_run_within_5_sigma(self, sketch_cls, n):
        sketch = make(sketch_cls, m=256, seed=42)
        sketch.add_all(range(n))
        sigma = sketch_cls.expected_std_error(256)
        assert sketch.estimate() == pytest.approx(n, rel=5 * sigma + 0.02)

    def test_mean_error_small_across_seeds(self, sketch_cls):
        n, m, trials = 30_000, 128, 6
        total = 0.0
        for seed in range(trials):
            sketch = make(sketch_cls, m=m, seed=seed)
            sketch.add_all(range(n))
            total += sketch.estimate() / n
        mean = total / trials
        sigma = sketch_cls.expected_std_error(m) / trials**0.5
        assert abs(mean - 1) < 5 * sigma + 0.02

    def test_accuracy_improves_with_m(self, sketch_cls):
        """Averaged over seeds, m=1024 must beat m=16."""
        n, trials = 50_000, 5

        def mean_abs_err(m):
            errors = []
            for seed in range(trials):
                sketch = make(sketch_cls, m=m, seed=seed + 100)
                sketch.add_all(range(n))
                errors.append(abs(sketch.estimate() / n - 1))
            return sum(errors) / trials

        assert mean_abs_err(1024) < mean_abs_err(16)

    def test_string_items(self, sketch_cls):
        sketch = make(sketch_cls, m=256, seed=7)
        sketch.add_all(f"url:/doc/{i}" for i in range(25_000))
        assert sketch.estimate() == pytest.approx(25_000, rel=0.3)


class TestSerialization:
    def test_round_trip(self, sketch_cls):
        sketch = make(sketch_cls, m=64)
        sketch.add_all(range(5_000))
        data = sketch.to_bytes()
        rebuilt = sketch_cls.from_bytes(
            data, m=64, key_bits=64, hash_family=MixerHash(bits=64, seed=0)
        )
        assert state_of(rebuilt) == state_of(sketch)
        assert rebuilt.estimate() == sketch.estimate()

    def test_wrong_length_rejected(self, sketch_cls):
        with pytest.raises(ValueError):
            sketch_cls.from_bytes(b"\x00", m=64)

    def test_pcsa_rejects_bits_above_position_bits(self):
        """m=512, k=24 leaves 15 usable positions in each 2-byte bitmap."""
        with pytest.raises(ValueError, match="position_bits"):
            PCSASketch.from_bytes(b"\x00\x80" * 512, m=512, key_bits=24)
        top_valid = PCSASketch.from_bytes(b"\x00\x40" * 512, m=512, key_bits=24)
        assert top_valid.bit(0, 14) and not top_valid.is_empty()

    def test_serialized_size_reflects_family(self):
        """super-LogLog state must be smaller than PCSA's (log log vs log)."""
        pcsa, sll = make(PCSASketch, m=64), make(SuperLogLogSketch, m=64)
        pcsa.add_all(range(1000))
        sll.add_all(range(1000))
        assert len(sll.to_bytes()) < len(pcsa.to_bytes())
