"""Determinism rules (DHS1xx).

Every stochastic choice in this library must flow through
``repro.sim.seeds.rng_for`` so a single master seed replays an experiment
bit-for-bit.  These rules catch the escape hatches: module-level RNGs,
wall-clock/entropy reads, and the per-process-salted builtin ``hash``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional

from tools.analyze.engine import FileContext, Rule, Violation, register
from tools.analyze.rules._imports import ImportTable

#: Wall-clock / process-entropy sources that break deterministic replay.
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.randbelow",
        "secrets.choice",
    }
)

_DATETIME_SUFFIXES = (".now", ".utcnow", ".today")


def _calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def _seed_argument(call: ast.Call) -> Optional[ast.expr]:
    """The seed ``default_rng`` is called with, or ``None`` for no seed."""
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "seed":
            return keyword.value
    return None


def _seed_derived(node: ast.expr) -> bool:
    """Whether an expression visibly carries the master seed.

    A seed-named name or attribute (``seed``, ``spec.seed``), a
    ``derive_seed(...)`` call, or arithmetic over one
    (``derive_seed(seed, "x") % 2**32``).  Judged per expression, with
    no flow tracking: bind the value to a seed-named variable if it
    comes from further away.
    """
    if isinstance(node, ast.Name):
        return "seed" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "seed" in node.attr.lower()
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name == "derive_seed"
    if isinstance(node, ast.BinOp):
        return _seed_derived(node.left) or _seed_derived(node.right)
    return False


@register
class UnseededRng(Rule):
    """DHS101 — module-level / directly-constructed RNG outside the seed root."""

    code = "DHS101"
    name = "unseeded-rng"
    rationale = (
        "Module-level `random.*` and `numpy.random.*` draw from hidden global "
        "state, and a bare `random.Random()` / `default_rng()` seeds itself "
        "from OS entropy; both break bit-for-bit replay from the master seed. "
        "Derive all randomness via `repro.sim.seeds.rng_for`, or pass "
        "`default_rng` a seed-named value or `derive_seed(...)` (arithmetic "
        "over one is fine) — a constant seed ignores `--seed`."
    )

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        if ctx.module in ctx.config.determinism_exempt:
            return []
        table = ImportTable(ctx.tree)
        out: List[Violation] = []
        for call in _calls(ctx.tree):
            origin = table.resolve(call.func)
            if origin is None:
                continue
            if origin in ("random.Random", "random.SystemRandom"):
                out.append(
                    self.violation(
                        ctx, call, f"direct `{origin}(...)` bypasses rng_for; "
                        "use repro.sim.seeds.rng_for(master, *labels)"
                    )
                )
            elif origin.startswith("random."):
                out.append(
                    self.violation(
                        ctx, call, f"module-level `{origin}()` uses hidden global RNG "
                        "state; use an rng from repro.sim.seeds.rng_for"
                    )
                )
            elif origin == "numpy.random.default_rng":
                seed = _seed_argument(call)
                if seed is None:
                    out.append(
                        self.violation(
                            ctx, call, "`default_rng()` without a seed draws OS "
                            "entropy; pass a seed derived via repro.sim.seeds.derive_seed"
                        )
                    )
                elif not _seed_derived(seed):
                    out.append(
                        self.violation(
                            ctx, call, "`default_rng(...)` seed is not derived from "
                            "the master seed; pass a seed-named value or "
                            "derive_seed(...)"
                        )
                    )
            elif origin.startswith("numpy.random."):
                out.append(
                    self.violation(
                        ctx, call, f"module-level `{origin}()` uses numpy's hidden "
                        "global RNG; use default_rng(derive_seed(...))"
                    )
                )
        return out


@register
class WallClock(Rule):
    """DHS102 — wall-clock or OS-entropy read in simulation/estimator code."""

    code = "DHS102"
    name = "wall-clock"
    rationale = (
        "The simulation is *counted*, not timed: TTLs, sweeps and costs all "
        "advance on logical time passed in by the caller. A wall-clock or "
        "entropy read makes a run irreproducible and couples results to the "
        "host machine."
    )

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        table = ImportTable(ctx.tree)
        out: List[Violation] = []
        for call in _calls(ctx.tree):
            origin = table.resolve(call.func)
            if origin is None:
                continue
            if origin in _CLOCK_CALLS:
                out.append(
                    self.violation(
                        ctx, call, f"`{origin}()` reads host wall-clock/entropy; "
                        "pass logical time (`now`) explicitly"
                    )
                )
            elif origin.startswith("datetime.") and origin.endswith(_DATETIME_SUFFIXES):
                out.append(
                    self.violation(
                        ctx, call, f"`{origin}()` reads the wall clock; "
                        "pass logical time explicitly"
                    )
                )
        return out


@register
class BuiltinHash(Rule):
    """DHS103 — builtin ``hash()`` outside a ``__hash__`` implementation."""

    code = "DHS103"
    name = "builtin-hash"
    rationale = (
        "Builtin `hash()` on str/bytes is salted per process "
        "(PYTHONHASHSEED), so any value derived from it differs between "
        "runs. Use `repro.hashing` families for content hashing; `hash()` "
        "is only legitimate inside `__hash__`, which never leaves the "
        "process."
    )

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        out: List[Violation] = []

        def visit(node: ast.AST, in_hash_method: bool) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                in_hash_method = node.name == "__hash__"
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
                and not in_hash_method
            ):
                out.append(
                    self.violation(
                        ctx, node, "builtin `hash()` is salted per process; "
                        "use a repro.hashing family for stable hashing"
                    )
                )
            for child in ast.iter_child_nodes(node):
                visit(child, in_hash_method)

        visit(ctx.tree, False)
        return out
