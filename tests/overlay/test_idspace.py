"""Tests for circular id-space arithmetic."""

import pytest

from repro.overlay.idspace import IdSpace

SPACE = IdSpace(8)  # small space: every case is enumerable


class TestBasics:
    def test_size(self):
        assert IdSpace(8).size == 256
        assert IdSpace(64).size == 2**64

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            IdSpace(0)
        with pytest.raises(ValueError):
            IdSpace(300)

    def test_contains(self):
        assert SPACE.contains(0)
        assert SPACE.contains(255)
        assert not SPACE.contains(256)
        assert not SPACE.contains(-1)

    def test_wrap(self):
        assert SPACE.wrap(256) == 0
        assert SPACE.wrap(257) == 1
        assert SPACE.wrap(255) == 255

    def test_distance_clockwise(self):
        assert SPACE.distance(10, 20) == 10
        assert SPACE.distance(20, 10) == 246
        assert SPACE.distance(5, 5) == 0
