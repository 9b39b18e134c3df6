"""Project-wide symbol table: modules, classes, functions, import aliases.

This is the name-resolution layer the dataflow passes sit on.  Every
analyzed file contributes a :class:`ModuleInfo` (its imports — absolute
and relative — its top-level defs, classes with methods, and module-level
variable bindings); the :class:`SymbolTable` then answers the
cross-module questions: *what fully-qualified definition does this
dotted expression refer to from this module?*, following
import aliasing and package ``__init__`` re-export chains, and *which
project classes subclass this base?* for conservative dynamic dispatch.

Resolution is lexical and over-approximate (no control flow): if a name
*could* refer to a definition, it does.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from tools.analyze.engine import FileContext

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "SymbolTable",
    "build_symbols",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: str
    node: FunctionNode
    #: Qualname of the owning class for methods, else ``None``.
    cls: Optional[str] = None

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_method(self) -> bool:
        return self.cls is not None

    def receiver_name(self) -> Optional[str]:
        """Name of the ``self``/``cls`` parameter for instance methods."""
        if not self.is_method:
            return None
        decorators = {
            d.id for d in self.node.decorator_list if isinstance(d, ast.Name)
        }
        if "staticmethod" in decorators:
            return None
        args = self.node.args
        ordered = args.posonlyargs + args.args
        return ordered[0].arg if ordered else None


@dataclass
class ClassInfo:
    """One class definition with resolved base names and its methods."""

    qualname: str
    module: str
    node: ast.ClassDef
    #: Base classes as resolved dotted names (project or external).
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Per-module name bindings."""

    name: str
    ctx: FileContext
    #: Local alias -> dotted target (``np`` -> ``numpy``,
    #: ``union_all`` -> ``repro.sketches.merge.union_all``).
    imports: Dict[str, str] = field(default_factory=dict)
    #: Top-level function defs by bare name.
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Top-level class defs by bare name.
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: Names bound by top-level assignments (module state candidates).
    variables: Set[str] = field(default_factory=set)


def _relative_base(module: str, is_package: bool, level: int) -> Optional[str]:
    """Package a ``level``-deep relative import resolves against."""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop > len(parts):
        return None
    return ".".join(parts[: len(parts) - drop]) if drop else ".".join(parts)


def _collect_module(ctx: FileContext) -> ModuleInfo:
    assert ctx.module is not None
    info = ModuleInfo(name=ctx.module, ctx=ctx)
    is_package = ctx.is_package_init()
    for node in ctx.tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    info.imports[alias.asname] = alias.name
                else:
                    # ``import a.b.c`` binds the name ``a``.
                    head = alias.name.split(".")[0]
                    info.imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _relative_base(ctx.module, is_package, node.level)
                if base is None:
                    continue
                source = f"{base}.{node.module}" if node.module else base
            else:
                source = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                info.imports[alias.asname or alias.name] = f"{source}.{alias.name}"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{ctx.module}.{node.name}"
            info.functions[node.name] = FunctionInfo(
                qualname=qualname, module=ctx.module, node=node
            )
        elif isinstance(node, ast.ClassDef):
            qualname = f"{ctx.module}.{node.name}"
            cls = ClassInfo(qualname=qualname, module=ctx.module, node=node)
            for body_item in node.body:
                if isinstance(body_item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods[body_item.name] = FunctionInfo(
                        qualname=f"{qualname}.{body_item.name}",
                        module=ctx.module,
                        node=body_item,
                        cls=qualname,
                    )
            info.classes[node.name] = cls
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    info.variables.add(target.id)
    return info


class SymbolTable:
    """Cross-module name resolution over every analyzed file."""

    def __init__(self, modules: Dict[str, ModuleInfo]) -> None:
        self.modules = modules
        #: Every function/method by fully-qualified name.
        self.functions: Dict[str, FunctionInfo] = {}
        #: Every class by fully-qualified name.
        self.classes: Dict[str, ClassInfo] = {}
        for module in modules.values():
            for fn in module.functions.values():
                self.functions[fn.qualname] = fn
            for cls in module.classes.values():
                self.classes[cls.qualname] = cls
                for method in cls.methods.values():
                    self.functions[method.qualname] = method
        # Resolve class bases now that every class is known.
        for module in modules.values():
            for cls in module.classes.values():
                for base in cls.node.bases:
                    dotted = _dotted(base)
                    if dotted is None:
                        continue
                    cls.bases.append(
                        self.canonical_from(module.name, dotted) or dotted
                    )
        self._subclasses: Dict[str, Set[str]] = {}
        for cls in self.classes.values():
            for base in cls.bases:
                self._subclasses.setdefault(base, set()).add(cls.qualname)

    # ------------------------------------------------------------------
    # Canonicalization.
    # ------------------------------------------------------------------
    def canonical(self, dotted: str, _depth: int = 0) -> str:
        """Follow re-export/alias chains to a defining module's qualname.

        ``repro.sketches.union_all`` (a package ``__init__`` re-export)
        canonicalizes to ``repro.sketches.merge.union_all``.  Unknown
        names are returned unchanged.
        """
        if _depth > 16:
            return dotted
        if dotted in self.functions or dotted in self.classes:
            return dotted
        parts = dotted.split(".")
        # Longest module prefix wins.
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            module = self.modules.get(prefix)
            if module is None:
                continue
            head, rest = parts[cut], parts[cut + 1 :]
            if head in module.imports:
                target = ".".join([module.imports[head], *rest])
                return self.canonical(target, _depth + 1)
            if head in module.functions or head in module.classes or head in module.variables:
                return ".".join([prefix, head, *rest])
            return dotted
        return dotted

    def canonical_from(self, module_name: str, dotted: str) -> Optional[str]:
        """Canonical qualname of ``dotted`` as written inside ``module_name``."""
        module = self.modules.get(module_name)
        if module is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in module.imports:
            base = module.imports[head]
        elif head in module.functions or head in module.classes or head in module.variables:
            base = f"{module_name}.{head}"
        elif not rest:
            # Bare, never-imported name: return as-is so callers can
            # recognize builtins (``hash``, ``print``).
            return head
        else:
            return None
        target = f"{base}.{rest}" if rest else base
        return self.canonical(target)

    def resolve_expr(self, module_name: str, node: ast.expr) -> Optional[str]:
        """Canonical qualname of an attribute chain expression."""
        dotted = _dotted(node)
        if dotted is None:
            return None
        return self.canonical_from(module_name, dotted)

    # ------------------------------------------------------------------
    # Class hierarchy.
    # ------------------------------------------------------------------
    def subclasses(self, qualname: str) -> Set[str]:
        """Transitive project subclasses of ``qualname``."""
        out: Set[str] = set()
        frontier = [qualname]
        while frontier:
            current = frontier.pop()
            for child in self._subclasses.get(current, ()):
                if child not in out:
                    out.add(child)
                    frontier.append(child)
        return out

    def mro_method(self, class_qualname: str, name: str) -> Optional[FunctionInfo]:
        """First definition of ``name`` walking up the (project) bases."""
        seen: Set[str] = set()
        frontier = [class_qualname]
        while frontier:
            current = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if name in cls.methods:
                return cls.methods[name]
            frontier.extend(cls.bases)
        return None

    def implementations(self, class_qualname: str, name: str) -> List[FunctionInfo]:
        """Every implementation of ``name`` in the class or its subclasses."""
        out: List[FunctionInfo] = []
        for candidate in [class_qualname, *sorted(self.subclasses(class_qualname))]:
            cls = self.classes.get(candidate)
            if cls is not None and name in cls.methods:
                out.append(cls.methods[name])
        return out

    def dispatch_method(self, name: str, roots: Tuple[str, ...]) -> List[FunctionInfo]:
        """Dispatch-root resolution: all implementors of ``name`` under any root."""
        out: List[FunctionInfo] = []
        for root in roots:
            if self.mro_method(root, name) is not None or any(
                name in self.classes[sub].methods
                for sub in self.subclasses(root)
                if sub in self.classes
            ):
                out.extend(self.implementations(root, name))
        return out


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` attribute chain as a dotted string, else ``None``."""
    chain: List[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    chain.append(node.id)
    return ".".join(reversed(chain))


def build_symbols(contexts: List[FileContext]) -> SymbolTable:
    """Build the project symbol table from parsed file contexts."""
    modules: Dict[str, ModuleInfo] = {}
    for ctx in contexts:
        if ctx.module is None:
            continue
        modules[ctx.module] = _collect_module(ctx)
    return SymbolTable(modules)
