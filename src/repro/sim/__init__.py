"""Simulation kit: deterministic seeds, cost metrics, experiment runners."""

from repro.sim.parallel import TrialSpec, env_jobs, run_trials
from repro.sim.seeds import derive_seed, rng_for

__all__ = [
    "TrialSpec",
    "derive_seed",
    "env_jobs",
    "rng_for",
    "run_trials",
]
