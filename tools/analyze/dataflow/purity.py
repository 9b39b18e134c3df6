"""Bottom-up purity inference over the call graph (DHS821–DHS822).

The sketch-merge algebra (``repro.sketches.merge`` / ``setops``) and
every estimator callable must be side-effect-free: parallel trial
workers and the self-healing replay path both assume that merging or
estimating twice is harmless.  This pass infers an *effect summary* for
every project function::

    writes_global   mutates module-level state (or obj rooted at one)
    writes_params   mutates an argument (incl. a method mutating ``self``
                    when the receiver at the call site is a parameter)
    writes_self     method mutates its own receiver
    io              print/open/input or file-handle writes

Direct effects are read off each body; call-site effects are inherited
through the call graph to a fixpoint, *mapped through the receiver*: a
callee that ``writes_self`` is harmless when the receiver is a fresh
local (``result = first.copy(); result.merge(s)``), a parameter
mutation when the receiver is a caller parameter, and so on.

* **DHS821** — a purity-required function has a *direct* impure effect;
* **DHS822** — it inherits one through a call chain (chain is reported).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from tools.analyze.engine import ProjectRule, Violation, register_project
from tools.analyze.dataflow.callgraph import CallResolver, iter_calls
from tools.analyze.dataflow.symbols import FunctionInfo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from tools.analyze.dataflow.project import ProjectContext

__all__ = ["Effect", "EffectAnalysis", "MUTATOR_METHODS", "module_in"]

WRITES_GLOBAL = "writes_global"
WRITES_PARAMS = "writes_params"
WRITES_SELF = "writes_self"
IO = "io"

#: Effect kinds that make a purity-required function impure.
IMPURE_KINDS = (WRITES_GLOBAL, IO, WRITES_PARAMS, WRITES_SELF)

#: Method names that mutate their receiver (name-based fallback, used only
#: when the call cannot be resolved to a project definition).
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "popleft",
        "clear",
        "insert",
        "remove",
        "discard",
        "sort",
        "reverse",
        "write",
        "writelines",
    }
)

#: Bare call names with observable I/O.
IO_CALLS = frozenset({"print", "open", "input"})


@dataclass(frozen=True)
class Effect:
    """First witness of one effect kind in one function."""

    kind: str
    line: int
    col: int
    detail: str
    #: Callee qualname when the effect is inherited through a call.
    via: Optional[str] = None


def _local_names(fn: FunctionInfo) -> Set[str]:
    """Names bound locally: params, assignment/loop/with targets."""
    names: Set[str] = set()
    args = fn.node.args
    for arg in [
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        *( [args.vararg] if args.vararg else [] ),
        *( [args.kwarg] if args.kwarg else [] ),
    ]:
        names.add(arg.arg)
    for node in ast.walk(fn.node):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For, ast.AsyncFor)):
            targets = [node.target]
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            targets = [
                item.optional_vars for item in node.items if item.optional_vars
            ]
        elif isinstance(node, ast.comprehension):
            targets = [node.target]
        for target in targets:
            names.update(_binding_names(target))
    return names


def _binding_names(target: ast.expr) -> Iterable[str]:
    """Names *bound* by an assignment target (``x[...] = ...`` binds none)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _binding_names(element)
    elif isinstance(target, ast.Starred):
        yield from _binding_names(target.value)


def _root_name(node: ast.expr) -> Optional[str]:
    """Root ``Name`` of an attribute/subscript chain, else ``None``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def module_in(module: Optional[str], prefixes: Iterable[str]) -> bool:
    """Whether ``module`` is one of ``prefixes`` or inside one of them."""
    if module is None:
        return False
    return any(module == p or module.startswith(p + ".") for p in prefixes)


class EffectAnalysis:
    """Effect summaries for every function, plus DHS82x violations."""

    def __init__(self, project: "ProjectContext") -> None:
        self.project = project
        #: Function qualname -> {kind -> first witness}.
        self.effects: Dict[str, Dict[str, Effect]] = {}
        #: Qualnames required to be pure, with the reason they are required.
        self.required: Dict[str, str] = {}
        self.violations: Dict[str, List[Violation]] = {"DHS821": [], "DHS822": []}
        self._resolvers: Dict[str, CallResolver] = {}
        #: Per function, computed once for every fixpoint round: its local
        #: names and each call site with the callees it resolves to.
        self._locals: Dict[str, Set[str]] = {}
        self._sites: Dict[str, List[Tuple[ast.Call, List[FunctionInfo]]]] = {}
        self._run()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        symbols = self.project.symbols
        config = self.project.config
        for fn in symbols.functions.values():
            resolver = CallResolver(symbols, config, fn)
            self._resolvers[fn.qualname] = resolver
            self._locals[fn.qualname] = _local_names(fn)
            self._sites[fn.qualname] = [
                (call, resolver.resolve_call(call)) for call in iter_calls(fn.node)
            ]
            self.effects[fn.qualname] = self._direct_effects(fn)
        # Inherit call-site effects to a fixpoint (monotone: effects only grow).
        for _ in range(len(symbols.functions) + 1):
            if not self._propagate_once():
                break
        self._collect_required()
        for qualname, reason in sorted(self.required.items()):
            self._emit(qualname, reason)

    # ------------------------------------------------------------------
    # Direct effects.
    # ------------------------------------------------------------------
    def _classify_root(self, fn: FunctionInfo, root: Optional[str], locals_: Set[str]) -> Optional[str]:
        """Effect kind of mutating an object rooted at ``root``."""
        if root is None:
            return None
        receiver = fn.receiver_name()
        if root == receiver:
            return WRITES_SELF
        if root in self._param_names(fn):
            return WRITES_PARAMS
        if root in locals_:
            return None  # fresh local: invisible to callers
        module = self.project.symbols.modules.get(fn.module)
        if module is not None and (
            root in module.variables or root in module.imports
        ):
            return WRITES_GLOBAL
        return None

    @staticmethod
    def _param_names(fn: FunctionInfo) -> Set[str]:
        args = fn.node.args
        names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
        receiver = fn.receiver_name()
        if receiver is not None:
            names.discard(receiver)
        return names

    def _direct_effects(self, fn: FunctionInfo) -> Dict[str, Effect]:
        out: Dict[str, Effect] = {}
        locals_ = self._locals[fn.qualname]
        declared_global: Set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)

        def add(kind: Optional[str], node: ast.AST, detail: str) -> None:
            if kind is not None and kind not in out:
                out[kind] = Effect(
                    kind=kind,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0),
                    detail=detail,
                )

        for node in ast.walk(fn.node):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            for target in targets:
                if isinstance(target, ast.Name):
                    if target.id in declared_global:
                        add(WRITES_GLOBAL, node, f"assigns global {target.id!r}")
                elif isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = _root_name(target)
                    kind = self._classify_root(fn, root, locals_)
                    add(kind, node, f"mutates {root!r}")
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for element in target.elts:
                        if isinstance(element, (ast.Attribute, ast.Subscript)):
                            root = _root_name(element)
                            add(
                                self._classify_root(fn, root, locals_),
                                node,
                                f"mutates {root!r}",
                            )
            if isinstance(node, ast.Call):
                bare = None
                if isinstance(node.func, ast.Name):
                    bare = node.func.id
                if bare in IO_CALLS:
                    add(IO, node, f"calls {bare}()")
                    continue
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATOR_METHODS
                    and not self._resolvers[fn.qualname].resolve_call(node)
                ):
                    root = _root_name(node.func.value)
                    kind = self._classify_root(fn, root, locals_)
                    add(kind, node, f"calls {root!r}.{node.func.attr}(...)")
        return out

    # ------------------------------------------------------------------
    # Call-site inheritance.
    # ------------------------------------------------------------------
    def _propagate_once(self) -> bool:
        changed = False
        for fn in self.project.symbols.functions.values():
            mine = self.effects[fn.qualname]
            locals_ = self._locals[fn.qualname]
            for call, callees in self._sites[fn.qualname]:
                for callee in callees:
                    if callee.qualname == fn.qualname:
                        continue
                    theirs = self.effects.get(callee.qualname, {})
                    for kind, effect in theirs.items():
                        mapped = self._map_kind(fn, call, callee, kind, locals_)
                        if mapped is not None and mapped not in mine:
                            mine[mapped] = Effect(
                                kind=mapped,
                                line=call.lineno,
                                col=call.col_offset,
                                detail=effect.detail,
                                via=callee.qualname,
                            )
                            changed = True
        return changed

    def _map_kind(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        callee: FunctionInfo,
        kind: str,
        locals_: Set[str],
    ) -> Optional[str]:
        """Translate a callee effect into the caller's frame."""
        if kind in (WRITES_GLOBAL, IO):
            return kind
        resolver = self._resolvers[fn.qualname]
        if kind == WRITES_SELF:
            # Constructor call: the mutated receiver is the fresh instance.
            if not isinstance(call.func, ast.Attribute):
                return None
            root = resolver.receiver_root(call)
            return self._classify_root(fn, root, locals_)
        if kind == WRITES_PARAMS:
            # Impure only if one of *our* params (or self) is handed over.
            receiver = fn.receiver_name()
            params = self._param_names(fn)
            for arg in [*call.args, *[k.value for k in call.keywords]]:
                root = _root_name(arg) if isinstance(
                    arg, (ast.Name, ast.Attribute, ast.Subscript)
                ) else None
                if root is None:
                    continue
                if root == receiver:
                    return WRITES_SELF
                if root in params:
                    return WRITES_PARAMS
            return None
        return None

    # ------------------------------------------------------------------
    # Requirements and emission.
    # ------------------------------------------------------------------
    def _collect_required(self) -> None:
        config = self.project.config
        for fn in self.project.symbols.functions.values():
            if fn.name.startswith("_") and fn.name.endswith("__"):
                continue
            if module_in(fn.module, config.purity_modules):
                self.required[fn.qualname] = (
                    f"defined in purity-required module {fn.module}"
                )
            elif (
                fn.is_method
                and fn.name.startswith("estimate")
                and module_in(fn.module, config.estimator_packages)
            ):
                self.required[fn.qualname] = "estimator callable"

    def _chain(self, qualname: str, kind: str) -> List[str]:
        chain = [qualname]
        seen = {qualname}
        current = qualname
        while len(chain) < 8:
            effect = self.effects.get(current, {}).get(kind)
            if effect is None or effect.via is None or effect.via in seen:
                break
            chain.append(effect.via)
            seen.add(effect.via)
            current = effect.via
        return chain

    def _emit(self, qualname: str, reason: str) -> None:
        fn = self.project.symbols.functions[qualname]
        module = self.project.symbols.modules.get(fn.module)
        path = str(module.ctx.path) if module is not None else fn.module
        mine = self.effects.get(qualname, {})
        for kind in IMPURE_KINDS:
            effect = mine.get(kind)
            if effect is None:
                continue
            if effect.via is None:
                self.violations["DHS821"].append(
                    Violation(
                        code="DHS821",
                        message=(
                            f"{qualname} must be side-effect-free ({reason}) "
                            f"but {effect.detail} [{kind}]"
                        ),
                        path=path,
                        line=effect.line,
                        col=effect.col,
                    )
                )
            else:
                chain = " -> ".join(self._chain(qualname, kind)[1:])
                self.violations["DHS822"].append(
                    Violation(
                        code="DHS822",
                        message=(
                            f"{qualname} must be side-effect-free ({reason}) "
                            f"but reaches an impure callee via {chain} "
                            f"({effect.detail}) [{kind}]"
                        ),
                        path=path,
                        line=effect.line,
                        col=effect.col,
                    )
                )


@register_project
class DirectImpurityRule(ProjectRule):
    code = "DHS821"
    name = "purity-direct-effect"
    rationale = (
        "Merge-algebra functions and estimator callables are re-executed by "
        "the parallel harness and the self-healing replay path; a direct "
        "side effect makes re-execution observable."
    )

    def check_project(self, project: "ProjectContext") -> Iterable[Violation]:
        return project.effects().violations["DHS821"]


@register_project
class ChainImpurityRule(ProjectRule):
    code = "DHS822"
    name = "purity-chain-effect"
    rationale = (
        "Purity is compositional: a required-pure function inheriting a "
        "side effect through its call chain is as unsafe as writing it "
        "directly — the chain witness shows where."
    )

    def check_project(self, project: "ProjectContext") -> Iterable[Violation]:
        return project.effects().violations["DHS822"]
