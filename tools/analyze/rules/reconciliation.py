"""Reconciliation rules (DHS10xx).

Anti-entropy correctness hinges on one invariant: **both register
backends digest to identical bytes**.  ``repro.overlay.antientropy``
hashes a slot's live bitmap as a Python ``int`` (an arena-backed slot
mirrors its row into one), canonicalized one way only —
``mask.to_bytes(..., "little")`` with trailing zeros stripped — and
every digest in the system is built from that one canonical form.  A
second module hashing arena state independently would fork the
canonicalization — two nodes could disagree about convergence purely
because of *how* they hashed, the exact failure mode digest trees exist
to rule out.  DHS1001 therefore confines digest computation over
register state to the antientropy module.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from tools.analyze.engine import FileContext, Rule, Violation, register
from tools.analyze.rules._imports import ImportTable

#: The one module allowed to hash register-store state.
_ANTIENTROPY_ROOT = "repro.overlay.antientropy"

#: The register-arena module whose state is being digested.
_REGSTORE_ROOT = "repro.core.regstore"


def _imports_regstore(tree: ast.AST) -> bool:
    """Whether the module imports ``repro.core.regstore`` in any form."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.startswith(_REGSTORE_ROOT) for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            if node.module.startswith(_REGSTORE_ROOT):
                return True
            if node.module == "repro.core" and any(
                alias.name == "regstore" for alias in node.names
            ):
                return True
    return False


@register
class DigestOutsideAntientropy(Rule):
    """DHS1001 — hashing register-arena state outside the antientropy module."""

    code = "DHS1001"
    name = "digest-outside-antientropy"
    rationale = (
        "Anti-entropy digests are only meaningful if every node computes "
        "them from the identical canonical bytes: "
        "`repro.overlay.antientropy` owns that canonicalization "
        "(the live bitmap as `mask.to_bytes`, little-endian, trailing "
        "zeros stripped, whichever backend holds the slot) and the "
        "blake2b leaf/segment/root "
        "construction over it. A module that imports repro.core.regstore "
        "and hashes on its own forks the canonical form — two replicas "
        "could then disagree about convergence because of how they "
        "hashed, not what they store. Compute digests via "
        "repro.overlay.antientropy (view_digest) instead."
    )

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        if not ctx.in_package() or ctx.module == _ANTIENTROPY_ROOT:
            return []
        if not _imports_regstore(ctx.tree):
            return []
        out: List[Violation] = []
        table = ImportTable(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "hashlib" or alias.name.startswith("hashlib."):
                        out.append(
                            self.violation(
                                ctx, node, f"`import {alias.name}` next to a "
                                f"{_REGSTORE_ROOT} import; digesting register "
                                f"state belongs to {_ANTIENTROPY_ROOT}"
                            )
                        )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                if node.module == "hashlib" or node.module.startswith("hashlib."):
                    out.append(
                        self.violation(
                            ctx, node, f"`from {node.module} import ...` next to "
                            f"a {_REGSTORE_ROOT} import; digesting register "
                            f"state belongs to {_ANTIENTROPY_ROOT}"
                        )
                    )
            elif isinstance(node, ast.Call):
                origin = table.resolve(node.func)
                if origin is not None and origin.startswith("hashlib."):
                    out.append(
                        self.violation(
                            ctx, node, f"`{origin}()` hashes in a module that "
                            f"imports {_REGSTORE_ROOT}; compute register "
                            f"digests via {_ANTIENTROPY_ROOT} instead"
                        )
                    )
        return out
