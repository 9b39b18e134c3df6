"""Process-parallel trial runner for the experiment drivers.

Every experiment in :mod:`repro.experiments` evaluates a grid of
independent ``(config, trial)`` cells.  Instead of looping inline, a
driver's registry entry declares one picklable :class:`TrialSpec` per
cell, and the entry's runner hands the list to :func:`run_trials`, which
either runs them in-process (the default) or fans them across a
``ProcessPoolExecutor``.

Determinism contract
--------------------
Parallel results are **bit-identical to the serial run** regardless of
worker count or scheduling order.  This holds because:

* a trial is fully determined by ``(fn, seed, kwargs)`` — the worker
  receives everything it needs and shares no mutable state with other
  trials or with the parent process;
* every random stream inside a trial must be derived from ``spec.seed``
  via :func:`repro.sim.seeds.derive_seed` / ``rng_for`` label paths
  (never from global state, ``hash()``, or the process id) — dhslint
  rule DHS502 enforces this at the call sites;
* results are collected in **submission order**, not completion order.

Drivers whose trials share a sequential RNG stream across cells (e.g.
``multidim``, which advances one ``Counter`` over every metric batch)
cannot be split without changing their output and deliberately stay
serial.

``DHS_JOBS`` (default 1) selects the pool width when the caller does not
pass ``jobs`` explicitly; ``DHS_JOBS=1`` short-circuits to a plain
in-process loop, so the serial path is byte-for-byte the pre-harness
behaviour.

Metrics capture
---------------
When :mod:`repro.obs` metering is active, every trial runs against a
**fresh** :class:`~repro.obs.metrics.MetricsRegistry` and its snapshot
is merged into the caller's registry in spec order — in the serial path
and the parallel path alike.  Using the same capture-and-merge sequence
on both paths is what makes ``snapshot()`` bit-identical at any
``DHS_JOBS`` width even for float-valued counters, whose addition is
order-sensitive (tests/obs/test_parallel_metrics.py pins this).
Span tracing does not cross process boundaries: traced runs (the golden
trace, ``repro.cli trace``) run serially by convention.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs import runtime as obs
from repro.obs.metrics import MetricsRegistry, Snapshot

__all__ = ["TrialSpec", "env_jobs", "run_trials"]


@dataclass(frozen=True)
class TrialSpec:
    """One independent experiment cell.

    ``fn`` must be a module-level callable (picklable by reference) and
    is invoked as ``fn(seed=seed, **kwargs)``.  All randomness inside the
    trial must flow from ``seed`` through ``derive_seed`` label paths so
    the cell's result is a pure function of this spec.
    """

    fn: Callable[..., Any]
    seed: int
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""


def env_jobs(default: int = 1) -> int:
    """Worker count from ``DHS_JOBS`` (default 1 = serial).

    The variable is outside input: anything but an integer ``>= 1``
    raises :class:`~repro.errors.ConfigurationError`.
    """
    raw = os.environ.get("DHS_JOBS")
    if raw is None:
        return default
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0  # rejected below, quoting the raw text
    if jobs < 1:
        raise ConfigurationError(f"DHS_JOBS must be an integer >= 1, got {raw!r}")
    return jobs


def _execute(spec: TrialSpec) -> Any:
    """Run one trial (top-level so it pickles into pool workers)."""
    return spec.fn(seed=spec.seed, **dict(spec.kwargs))


def _execute_metered(spec: TrialSpec) -> Tuple[Any, Snapshot]:
    """Run one trial against a fresh per-trial metrics registry.

    Used on both the serial and the parallel path whenever metering is
    on, so the caller-side merge sequence — and therefore the merged
    snapshot, floats included — is independent of the worker count.
    (Under ``fork`` the worker inherits the parent's registry; swapping
    in a fresh one here also keeps trial metrics out of it.)
    """
    registry = MetricsRegistry()
    with obs.observed(registry=registry, tracing=False):
        result = _execute(spec)
    return result, registry.snapshot()


def run_trials(specs: Sequence[TrialSpec], jobs: Optional[int] = None) -> List[Any]:
    """Run every spec and return results in spec order.

    ``jobs=None`` reads ``DHS_JOBS``; ``jobs <= 1`` (or a single spec)
    runs inline with no pool, which is the default serial path.
    """
    if jobs is None:
        jobs = env_jobs()
    metered = obs.METERING
    if jobs <= 1 or len(specs) <= 1:
        if not metered:
            return [_execute(spec) for spec in specs]
        outputs = [_execute_metered(spec) for spec in specs]
    else:
        # ``fork`` keeps worker start cheap and inherits the warm import
        # state; ``spawn`` platforms work too since specs pickle fully.
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        workers = min(jobs, len(specs))
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            # ``map`` preserves submission order, so each experiment's
            # reduce sees results exactly as the serial loop would.
            if not metered:
                return list(pool.map(_execute, specs, chunksize=1))
            outputs = list(pool.map(_execute_metered, specs, chunksize=1))
    results: List[Any] = []
    for result, snapshot in outputs:
        obs.METRICS.merge_snapshot(snapshot)
        results.append(result)
    return results
