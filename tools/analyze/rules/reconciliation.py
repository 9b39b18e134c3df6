"""Reconciliation rules (DHS10xx).

Anti-entropy correctness hinges on one invariant: **replicas are
compared by their live register state, whichever backend holds it**.
``repro.overlay.antientropy`` reads a slot's live bitmap as a Python
``int`` (an arena-backed slot mirrors its row into one) and decides
convergence from those ints; the digests it charges on the wire are
never computed.  A second module hashing arena state independently
would compare replicas by one backend's layout — two nodes could
disagree about convergence purely because of *how* they hashed, not
what they store.  DHS1001 therefore flags hashing in any module other
than the antientropy module that imports the register arena; the rule
retires with ``repro.core.regstore``.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from tools.analyze.engine import FileContext, Rule, Violation, register
from tools.analyze.rules._imports import ImportTable

#: The one module exempt from the rule: it compares register state.
_ANTIENTROPY_ROOT = "repro.overlay.antientropy"

#: The register-arena module whose state must not be hashed.
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
        "Anti-entropy compares replicas by their live bitmaps, read as "
        "Python ints whichever backend holds the slot: "
        "`repro.overlay.antientropy` decides convergence from those ints "
        "and charges its digests without computing them. A module that "
        "imports repro.core.regstore and hashes arena state compares "
        "replicas by one backend's layout — two replicas could then "
        "disagree about convergence because of how they hashed, not "
        "what they store. Compare live state through the packed views "
        "of repro.overlay.replication.ChainView instead."
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
                                f"{_REGSTORE_ROOT} import; replicas are compared "
                                f"by live state in {_ANTIENTROPY_ROOT}"
                            )
                        )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                if node.module == "hashlib" or node.module.startswith("hashlib."):
                    out.append(
                        self.violation(
                            ctx, node, f"`from {node.module} import ...` next to "
                            f"a {_REGSTORE_ROOT} import; replicas are compared "
                            f"by live state in {_ANTIENTROPY_ROOT}"
                        )
                    )
            elif isinstance(node, ast.Call):
                origin = table.resolve(node.func)
                if origin is not None and origin.startswith("hashlib."):
                    out.append(
                        self.violation(
                            ctx, node, f"`{origin}()` hashes in a module that "
                            f"imports {_REGSTORE_ROOT}; compare register "
                            f"state via {_ANTIENTROPY_ROOT} instead"
                        )
                    )
        return out
