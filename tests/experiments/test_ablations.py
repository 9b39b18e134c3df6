"""Shape tests for the ablation studies (tiny configurations)."""

import pytest

from repro.experiments.ablations import ABLATIONS
from repro.experiments.registry import run
from tests.experiments.rendering import render

DEFAULTS = ABLATIONS.params

#: Every study at the tiny configuration its test below checks.
TINY = dict(
    seed=4,
    retries={
        **DEFAULTS["retries"],
        "lims": (1, 8),
        "n_nodes": 64,
        "n_items": 10_000,
        "num_bitmaps": 64,
        "trials": 2,
    },
    replication={
        **DEFAULTS["replication"],
        "degrees": (0, 3),
        "failure_fraction": 0.2,
        "n_nodes": 64,
        "n_items": 5_000,
        "num_bitmaps": 64,
        "trials": 2,
    },
    bitshift={
        **DEFAULTS["bitshift"],
        "shifts": (0, 3),
        "n_nodes": 64,
        "n_items": 20_000,
        "num_bitmaps": 16,
        "trials": 2,
    },
    overlays={
        **DEFAULTS["overlays"],
        "n_nodes": 64,
        "n_items": 20_000,
        "num_bitmaps": 64,
        "trials": 2,
    },
)


@pytest.fixture(scope="module")
def rows():
    return run("ablations", **TINY)


class TestLimAblation:
    def test_budget_buys_accuracy(self, rows):
        by = {row["label"]: row for row in rows["retries"]}
        assert by["lim=1"]["error_pct"] >= by["lim=8"]["error_pct"]
        assert "lim=1" in render("ablations", rows, **TINY)["ablation_retries"]


class TestReplicationAblation:
    def test_rows_shape(self, rows):
        by = {row["label"]: row for row in rows["replication"]}
        # Replicas cost extra insert hops and never hurt accuracy much.
        assert by["R=3"]["extra"] > by["R=0"]["extra"]
        assert by["R=3"]["error_pct"] <= by["R=0"]["error_pct"] + 10


class TestBitShiftAblation:
    def test_shift_saves_write_bytes(self, rows):
        by = {row["label"]: row for row in rows["bitshift"]}
        assert by["b=3"]["extra"] < by["b=0"]["extra"]


class TestOverlayComparison:
    def test_both_overlays_reported(self, rows):
        labels = {row["label"] for row in rows["overlays"]}
        assert labels == {"chord", "kademlia", "pastry"}
        for row in rows["overlays"]:
            assert row["hops"] > 0
