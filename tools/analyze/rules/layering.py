"""Layering rules (DHS2xx): enforce the import DAG.

The architecture is a strict bottom-up DAG (see docs/ARCHITECTURE.md §6)::

    errors, hashing          (layer 0 — self-contained leaves)
    sim, sketches            (layer 1)
    overlay, workloads       (layer 2)
    core                     (layer 3 — the paper's contribution)
    histograms, baselines    (layer 4)
    query                    (layer 5)
    experiments              (layer 6)
    cli                      (layer 7)

A module may import from strictly lower layers (and from its own
sub-package); same-layer siblings and upward imports are forbidden, so
e.g. ``sketches`` can never grow a dependency on ``sim``, and nothing
below ``cli`` can reach the experiment drivers.  ``repro.hashing`` is held
to an even stricter standard: it must stay fully self-contained (DHS202),
because the seed-derivation root ``repro.sim.seeds`` depends on it and any
cycle there would poison determinism for the whole stack.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Tuple

from tools.analyze.engine import FileContext, Rule, Violation, register

#: Top-level modules of the root package that may import from any layer.
_UNRESTRICTED_SEGMENTS = frozenset({"__main__"})


def _imports(
    ctx: FileContext,
) -> Iterator[Tuple[ast.stmt, str]]:
    """Yield ``(node, absolute_target_module)`` for every intra-tree import."""
    parts = ctx.package_parts
    is_package = ctx.path.name == "__init__.py"
    container = parts if is_package else parts[:-1]
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if node.module:
                    yield node, node.module
                continue
            base = container[: len(container) - (node.level - 1)]
            target = list(base) + (node.module.split(".") if node.module else [])
            yield node, ".".join(target)


def _segment(parts: Tuple[str, ...]) -> Optional[str]:
    """Top-level segment under the root package, ``None`` for the root itself."""
    return parts[1] if len(parts) > 1 else None


@register
class LayeringDAG(Rule):
    """DHS201 — upward or cross-layer import between sub-packages."""

    code = "DHS201"
    name = "layering-dag"
    rationale = (
        "The layering DAG is what keeps refactors local: estimator math "
        "(`sketches`) cannot observe the overlay, overlays cannot reach "
        "into `core`, and nothing below the drivers imports them. Upward "
        "or sibling imports create cycles and make the layers untestable "
        "in isolation."
    )

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        config = ctx.config
        if not ctx.in_package():
            return []
        source_segment = _segment(ctx.package_parts)
        if source_segment is None or source_segment in _UNRESTRICTED_SEGMENTS:
            return []  # the root facade may re-export anything
        source_layer = config.layer_of(source_segment)
        if source_layer is None or source_segment == "hashing":
            return []  # DHS203 / DHS202 report these
        out: List[Violation] = []
        for node, target in _imports(ctx):
            target_parts = tuple(target.split("."))
            if target_parts[0] != config.package:
                continue
            target_segment = _segment(target_parts)
            if target_segment is None:
                out.append(
                    self.violation(
                        ctx, node, f"`{source_segment}` (layer {source_layer}) imports "
                        f"the root facade `{config.package}`; import the concrete "
                        "lower-layer module instead"
                    )
                )
                continue
            if target_segment == source_segment:
                continue
            target_layer = config.layer_of(target_segment)
            if target_layer is None:
                continue  # unassigned targets are DHS203's problem
            if target_layer >= source_layer:
                kind = "same-layer" if target_layer == source_layer else "upward"
                out.append(
                    self.violation(
                        ctx, node, f"{kind} import: `{source_segment}` (layer "
                        f"{source_layer}) may not import `{target_segment}` "
                        f"(layer {target_layer}); allowed targets are layers "
                        f"< {source_layer}"
                    )
                )
        return out


@register
class HashingSelfContained(Rule):
    """DHS202 — ``repro.hashing`` importing anything from ``repro.*``."""

    code = "DHS202"
    name = "hashing-self-contained"
    rationale = (
        "`repro.hashing` is the determinism bedrock: `repro.sim.seeds` "
        "derives every sub-seed through its mixers. It must not import "
        "any `repro.*` module — not even `errors` — so it can never "
        "participate in an import cycle with the code it seeds."
    )

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        config = ctx.config
        if not ctx.in_package() or _segment(ctx.package_parts) != "hashing":
            return []
        out: List[Violation] = []
        for node, target in _imports(ctx):
            target_parts = tuple(target.split("."))
            if target_parts[0] != config.package:
                continue
            if _segment(target_parts) == "hashing":
                continue
            out.append(
                self.violation(
                    ctx, node, f"`{config.package}.hashing` must stay self-contained "
                    f"but imports `{target}`"
                )
            )
        return out


@register
class UnassignedLayer(Rule):
    """DHS203 — sub-package missing from the ``Config.layers`` map."""

    code = "DHS203"
    name = "unassigned-layer"
    rationale = (
        "Every top-level sub-package must be placed in the layer DAG, "
        "otherwise DHS201 silently stops checking its imports. Adding a "
        "package to the tree forces a conscious decision about where it "
        "sits."
    )

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        if not ctx.in_package():
            return []
        segment = _segment(ctx.package_parts)
        if segment is None or segment in _UNRESTRICTED_SEGMENTS:
            return []
        if ctx.config.layer_of(segment) is None:
            return [
                self.violation(
                    ctx, ctx.tree, f"`{ctx.config.package}.{segment}` is not assigned "
                    "to a layer in `layers` (tools/analyze/config.py)"
                )
            ]
        return []
