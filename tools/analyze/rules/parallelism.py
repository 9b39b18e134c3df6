"""Parallelism rules (DHS5xx).

The experiment harness has exactly one blessed process-fan-out point:
``repro.sim.parallel.run_trials``.  Everything it guarantees — results
bit-identical to the serial run at any worker count — holds only because
each :class:`~repro.sim.parallel.TrialSpec` derives its randomness from
an explicit seed and the runner collects results in submission order.
These rules keep the guarantee enforceable: no ad-hoc process pools
elsewhere in the library, and no experiment driver splitting work with a
hard-coded (or missing) seed.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from tools.analyze.engine import FileContext, Rule, Violation, register
from tools.analyze.rules._imports import ImportTable

#: The one module allowed to spawn worker processes.
_PARALLEL_ROOT = "repro.sim.parallel"

#: Top-level modules whose import (or use) means process fan-out.
_POOL_MODULES = ("multiprocessing", "concurrent")

#: Direct fork/exec escape hatches.
_FORK_CALLS = frozenset({"os.fork", "os.forkpty", "os.spawnl", "os.spawnv"})


def _pool_import_root(name: str) -> Optional[str]:
    """The offending top-level module if ``name`` is a pool import."""
    root = name.split(".")[0]
    return root if root in _POOL_MODULES else None


@register
class AdHocProcessPool(Rule):
    """DHS501 — process fan-out outside ``repro.sim.parallel``."""

    code = "DHS501"
    name = "ad-hoc-process-pool"
    rationale = (
        "`repro.sim.parallel.run_trials` is the only sanctioned process "
        "fan-out: it derives every trial's seed up front and collects "
        "results in submission order, which is what makes parallel runs "
        "bit-identical to serial ones. An ad-hoc `multiprocessing` / "
        "`concurrent.futures` pool (or raw `os.fork`) elsewhere in the "
        "library reintroduces scheduling-dependent results. Declare "
        "TrialSpecs and call run_trials instead."
    )

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        if not ctx.in_package() or ctx.module == _PARALLEL_ROOT:
            return []
        out: List[Violation] = []
        table = ImportTable(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = _pool_import_root(alias.name)
                    if root is None:
                        continue
                    out.append(
                        self.violation(
                            ctx, node, f"`import {alias.name}` outside "
                            f"{_PARALLEL_ROOT}; fan out via "
                            "repro.sim.parallel.run_trials"
                        )
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                root = _pool_import_root(node.module)
                if root is not None:
                    out.append(
                        self.violation(
                            ctx, node, f"`from {node.module} import ...` outside "
                            f"{_PARALLEL_ROOT}; fan out via "
                            "repro.sim.parallel.run_trials"
                        )
                    )
            elif isinstance(node, ast.Call):
                origin = table.resolve(node.func)
                if origin in _FORK_CALLS:
                    out.append(
                        self.violation(
                            ctx, node, f"`{origin}()` forks the process directly; "
                            "fan out via repro.sim.parallel.run_trials"
                        )
                    )
        return out


@register
class UnseededTrialSpec(Rule):
    """DHS502 — TrialSpec in an experiment driver without a derived seed."""

    code = "DHS502"
    name = "unseeded-trial-spec"
    rationale = (
        "A TrialSpec's seed is the *only* state its trial may depend on — "
        "the determinism contract says (fn, seed, kwargs) fully determine "
        "the result. A missing seed silently defaults, and a literal "
        "integer pins every grid cell to the same stream instead of "
        "flowing from the experiment's master seed; both make the "
        "parallel/serial equivalence unverifiable. Pass the driver's "
        "`seed` argument (or a `derive_seed(...)` of it)."
    )

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        parts = ctx.package_parts
        if len(parts) < 2 or parts[0] != ctx.config.package or parts[1] != "experiments":
            return []
        table = ImportTable(ctx.tree)
        out: List[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = table.resolve(node.func)
            if origin != f"{_PARALLEL_ROOT}.TrialSpec":
                continue
            seed: Optional[ast.expr] = None
            if len(node.args) >= 2:
                seed = node.args[1]
            for keyword in node.keywords:
                if keyword.arg == "seed":
                    seed = keyword.value
            if seed is None:
                out.append(
                    self.violation(
                        ctx, node, "TrialSpec without `seed=`; every trial must "
                        "carry an explicitly derived seed"
                    )
                )
            elif isinstance(seed, ast.Constant) and isinstance(seed.value, int):
                out.append(
                    self.violation(
                        ctx, node, "TrialSpec with a literal seed; derive it from "
                        "the driver's master seed (e.g. `seed=seed` or "
                        "`derive_seed(seed, ...)`)"
                    )
                )
        return out
