"""Tests for the process-parallel trial runner (repro.sim.parallel).

The harness's contract is that results are bit-identical to the serial
run at any worker count: trials are pure functions of ``(fn, seed,
kwargs)`` and results come back in submission order.  The property test
at the bottom checks the contract end to end on a real experiment
driver with ``DHS_JOBS=4``.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.registry import run
from repro.sim.parallel import TrialSpec, env_jobs, run_trials
from repro.sim.seeds import rng_for


def _stream_cell(seed, *, label, draws):
    """Module-level (hence picklable) trial: a few seeded RNG draws."""
    rng = rng_for(seed, "cell", label)
    return (seed, label, [rng.random() for _ in range(draws)])


def _identity_cell(seed):
    return seed


def _grid(seeds):
    return [
        TrialSpec(fn=_stream_cell, seed=seed, kwargs={"label": str(i), "draws": 3})
        for i, seed in enumerate(seeds)
    ]


class TestRunTrials:
    def test_serial_runs_in_spec_order(self):
        specs = [TrialSpec(fn=_identity_cell, seed=s) for s in (5, 3, 8, 1)]
        assert run_trials(specs, jobs=1) == [5, 3, 8, 1]

    def test_parallel_preserves_spec_order(self):
        specs = [TrialSpec(fn=_identity_cell, seed=s) for s in (5, 3, 8, 1, 9, 2)]
        assert run_trials(specs, jobs=4) == [5, 3, 8, 1, 9, 2]

    @pytest.mark.parametrize("jobs", [2, 4, 8])
    def test_parallel_matches_serial_exactly(self, jobs):
        specs = _grid([11, 7, 7, 42, 0])
        assert run_trials(specs, jobs=jobs) == run_trials(specs, jobs=1)

    def test_single_spec_skips_the_pool(self):
        specs = [TrialSpec(fn=_identity_cell, seed=123)]
        assert run_trials(specs, jobs=8) == [123]

    def test_empty_grid(self):
        assert run_trials([], jobs=4) == []


class TestEnvJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("DHS_JOBS", raising=False)
        assert env_jobs() == 1

    def test_reads_dhs_jobs(self, monkeypatch):
        monkeypatch.setenv("DHS_JOBS", "6")
        assert env_jobs() == 6

    def test_caller_default_wins_when_unset(self, monkeypatch):
        monkeypatch.delenv("DHS_JOBS", raising=False)
        assert env_jobs(default=4) == 4

    @pytest.mark.parametrize("raw", ["", "four", "2.5", "0", "-3"])
    def test_rejects_non_positive_integer(self, monkeypatch, raw):
        monkeypatch.setenv("DHS_JOBS", raw)
        with pytest.raises(ConfigurationError, match=f"DHS_JOBS.*{raw!r}"):
            env_jobs()

    def test_run_trials_honours_env(self, monkeypatch):
        monkeypatch.setenv("DHS_JOBS", "2")
        specs = _grid([1, 2, 3])
        assert run_trials(specs) == run_trials(specs, jobs=1)


class TestDriverDeterminism:
    """End-to-end contract: a real driver is bit-identical at DHS_JOBS=4."""

    SWEEP = dict(ms=(8, 16), n_nodes=8, scale=2e-5, trials=1, hash_seeds=(0, 1))

    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=3, deadline=None)
    def test_accuracy_sweep_bit_identical_at_four_workers(self, seed):
        serial = run("accuracy", seed=seed, jobs=1, **self.SWEEP)
        previous = os.environ.get("DHS_JOBS")
        os.environ["DHS_JOBS"] = "4"
        try:
            parallel = run("accuracy", seed=seed, **self.SWEEP)
        finally:
            if previous is None:
                os.environ.pop("DHS_JOBS", None)
            else:
                os.environ["DHS_JOBS"] = previous
        assert parallel == serial
