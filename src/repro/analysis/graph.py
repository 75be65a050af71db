"""The whole-program layer: one AST pass, queryable cross-module indexes.

Per-file rules see one :class:`~repro.analysis.core.SourceFile` at a
time; the whole-program invariants (lock discipline on thread-reachable
call paths, no blocking call reachable from a coroutine) are properties
of the *program*, not of any file.  :class:`ProjectGraph`
digests a parsed :class:`~repro.analysis.core.SourceTree` into:

* a **module index** — project-relative paths mapped to dotted module
  names, with each module's import aliases resolved (``from ..obs import
  metrics`` becomes ``repro.obs.metrics``);
* a **symbol table** per module — every top-level class, function, and
  assignment;
* a **class index** — methods, attribute stores, first-assigned
  values (so rules can ask "is ``self._lock`` a ``threading.Lock``?"),
  and best-effort resolved base classes for cross-module subclass
  closures;
* a **function index** covering methods and nested functions (a
  ``threading.Thread(target=run)`` closure target is a first-class call
  graph node);
* a **call graph** — conservatively resolved: ``self.method()`` through
  the project MRO, bare names through module scope and imports, dotted
  names through the import table, attribute receivers through declared
  annotations or first-assigned constructor calls.  Unresolvable calls
  produce *no* edge, so closures computed over the graph under-approximate
  reachability instead of drowning rules in false positives.

The graph is built once per analysis run and cached on the tree, so the
cross-module rules share one traversal.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .core import SourceFile, SourceTree
from .rules.base import attr_chain, call_name

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectGraph",
    "constructor_call",
    "module_name_for",
    "walk_own",
]

#: Graph caches keyed by ``id(tree)`` (a SourceTree is unhashable).
_GRAPH_CACHE: dict[int, tuple[SourceTree, "ProjectGraph"]] = {}


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a project-relative posix path.

    ``src/repro/obs/metrics.py`` -> ``repro.obs.metrics``; a package
    ``__init__.py`` names the package itself.
    """
    parts = rel_path.split("/")
    if parts and parts[0] in ("src", "lib"):
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


@dataclass
class FunctionInfo:
    """One function, method, or nested function in the program."""

    qualname: str
    module: str
    source: SourceFile
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Owning class (``None`` for module-level and functions nested in them).
    cls: "ClassInfo | None" = None
    #: Sibling scope for nested defs: local name -> nested FunctionInfo.
    nested: dict[str, "FunctionInfo"] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_async(self) -> bool:
        return isinstance(self.node, ast.AsyncFunctionDef)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FunctionInfo({self.qualname})"


@dataclass
class ClassInfo:
    """One class definition plus its pre-digested attribute facts."""

    qualname: str
    module: str
    source: SourceFile
    node: ast.ClassDef
    #: Base expressions as dotted text, resolved through imports when possible.
    bases: tuple[str, ...] = ()
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: attr -> first value expression assigned to ``self.attr`` anywhere.
    attr_values: dict[str, ast.expr] = field(default_factory=dict)
    #: Class-level ``attr: Annotation`` declarations, as dotted text.
    attr_annotations: dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ClassInfo({self.qualname})"


@dataclass
class ModuleInfo:
    """One module: its file, symbols, and import table."""

    name: str
    source: SourceFile
    #: alias -> fully qualified target (module, class, or function).
    imports: dict[str, str] = field(default_factory=dict)
    #: top-level name -> defining AST node.
    symbols: dict[str, ast.AST] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ModuleInfo({self.name})"


class ProjectGraph:
    """Cross-module indexes over one parsed source tree."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: callee qualname -> caller FunctionInfos (reverse call edges).
        self._callers: dict[str, list[FunctionInfo]] = {}
        #: caller qualname -> resolved callee qualnames (forward edges).
        self._callees: dict[str, list[tuple[ast.Call, str]]] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def for_tree(cls, tree: SourceTree) -> "ProjectGraph":
        """The (cached) graph for one tree; built on first request."""
        cached = _GRAPH_CACHE.get(id(tree))
        if cached is not None and cached[0] is tree:
            return cached[1]
        graph = cls.build(tree)
        _GRAPH_CACHE.clear()  # one live analysis run at a time
        _GRAPH_CACHE[id(tree)] = (tree, graph)
        return graph

    @classmethod
    def build(cls, tree: SourceTree) -> "ProjectGraph":
        graph = cls()
        for source in tree:
            graph._index_module(source)
        graph._resolve_bases()
        for info in list(graph.functions.values()):
            graph._index_calls(info)
        return graph

    def _index_module(self, source: SourceFile) -> None:
        name = module_name_for(source.rel_path)
        module = ModuleInfo(name=name, source=source)
        self.modules[name] = module
        for stmt in source.tree.body:
            self._index_import(module, stmt)
            for target in _assign_targets(stmt):
                module.symbols[target] = stmt
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                module.symbols[stmt.name] = stmt
                self._index_function(module, source, stmt, prefix=name, cls=None)
            elif isinstance(stmt, ast.ClassDef):
                module.symbols[stmt.name] = stmt
                self._index_class(module, source, stmt)

    def _index_import(self, module: ModuleInfo, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname is not None:
                    module.imports[alias.asname] = alias.name
                else:
                    module.imports[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(stmt, ast.ImportFrom):
            base = stmt.module or ""
            if stmt.level:
                # Relative import: climb from the current package.
                package = module.name.split(".")
                if module.source.rel_path.rsplit("/", 1)[-1] != "__init__.py":
                    package = package[:-1]
                climb = stmt.level - 1
                package = package[: len(package) - climb] if climb else package
                base = ".".join(package + ([stmt.module] if stmt.module else []))
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                module.imports[local] = f"{base}.{alias.name}" if base else alias.name

    def _index_class(
        self, module: ModuleInfo, source: SourceFile, node: ast.ClassDef
    ) -> None:
        qualname = f"{module.name}.{node.name}"
        info = ClassInfo(qualname=qualname, module=module.name, source=source, node=node)
        self.classes[qualname] = info
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._index_function(module, source, stmt, prefix=qualname, cls=info)
                info.methods[stmt.name] = fn
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                annotation = _annotation_text(stmt.annotation)
                if annotation:
                    info.attr_annotations[stmt.target.id] = annotation
        for method in info.methods.values():
            for store_node, attr in _self_stores(method.node):
                if isinstance(store_node, ast.Attribute):
                    value = _store_value(method.node, store_node)
                    # Prefer the store that constructs something: the
                    # ``self._locks = []`` placeholder in __init__ must not
                    # shadow the ``self._locks = [Lock() ...]`` in start().
                    existing = info.attr_values.get(attr)
                    if value is not None and (
                        existing is None
                        or (
                            constructor_call(existing) is None
                            and constructor_call(value) is not None
                        )
                    ):
                        info.attr_values[attr] = value

    def _index_function(
        self,
        module: ModuleInfo,
        source: SourceFile,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        prefix: str,
        cls: ClassInfo | None,
    ) -> FunctionInfo:
        qualname = f"{prefix}.{node.name}"
        info = FunctionInfo(
            qualname=qualname, module=module.name, source=source, node=node, cls=cls
        )
        self.functions[qualname] = info
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = self._index_function(module, source, stmt, qualname, cls)
                info.nested[stmt.name] = nested
        return info

    def _resolve_bases(self) -> None:
        for info in self.classes.values():
            bases: list[str] = []
            for base in info.node.bases:
                dotted = attr_chain(base)
                if not dotted:
                    continue
                bases.append(self.resolve(info.module, dotted) or dotted)
            info.bases = tuple(bases)

    def _index_calls(self, info: FunctionInfo) -> None:
        edges: list[tuple[ast.Call, str]] = []
        for node in walk_own(info.node, include_nested=False):
            if not isinstance(node, ast.Call):
                continue
            target = self.resolve_call(info, node)
            if target is None:
                continue
            edges.append((node, target))
            self._callers.setdefault(target, []).append(info)
        self._callees[info.qualname] = edges

    # ------------------------------------------------------------------ #
    # name resolution
    # ------------------------------------------------------------------ #

    def resolve(self, module: str, dotted: str) -> str | None:
        """Resolve dotted text in a module's scope to a qualified name.

        Returns ``None`` when the head is neither a module symbol nor an
        import alias (builtins, locals, parameters).
        """
        info = self.modules.get(module)
        if info is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in info.imports:
            target = info.imports[head]
            return f"{target}.{rest}" if rest else target
        if head in info.symbols:
            qualname = f"{module}.{head}"
            return f"{qualname}.{rest}" if rest else qualname
        return None

    def resolve_call(self, fn: FunctionInfo, call: ast.Call) -> str | None:
        """Best-effort qualified name of a call target (``None`` = unknown)."""
        name = call_name(call)
        if not name:
            return None
        parts = name.split(".")
        if parts[0] == "self" and fn.cls is not None:
            if len(parts) == 2:
                owner = self.method_owner(fn.cls, parts[1])
                if owner is not None:
                    return f"{owner.qualname}.{parts[1]}"
                return None
            if len(parts) == 3:
                # self.<attr>.<method>(): type the receiver through its
                # class-level annotation or first-assigned constructor.
                target_cls = self.attr_class(fn.cls, parts[1])
                if target_cls is not None:
                    owner = self.method_owner(target_cls, parts[2])
                    if owner is not None:
                        return f"{owner.qualname}.{parts[2]}"
            return None
        if len(parts) == 1:
            # Nested sibling scope first, then module scope and imports.
            scope: FunctionInfo | None = fn
            while scope is not None:
                nested = scope.nested.get(parts[0])
                if nested is not None:
                    return nested.qualname
                scope = self._parent_function(scope)
        resolved = self.resolve(fn.module, name)
        if resolved is None:
            return None
        if resolved in self.functions or resolved in self.classes:
            return resolved
        # Method access through a resolved class (Class.method / mod.fn).
        owner_name, _, attr = resolved.rpartition(".")
        owner_cls = self.classes.get(owner_name)
        if owner_cls is not None and attr:
            owner = self.method_owner(owner_cls, attr)
            if owner is not None:
                return f"{owner.qualname}.{attr}"
        return resolved

    def _parent_function(self, fn: FunctionInfo) -> FunctionInfo | None:
        parent_qual = fn.qualname.rsplit(".", 1)[0]
        return self.functions.get(parent_qual)

    def attr_class(self, cls: ClassInfo, attr: str) -> ClassInfo | None:
        """The project class an instance attribute holds, when inferable."""
        for owner in self.mro(cls):
            annotation = owner.attr_annotations.get(attr)
            if annotation is not None:
                resolved = self.resolve(owner.module, annotation) or (
                    f"{owner.module}.{annotation}" if "." not in annotation else None
                )
                if resolved is not None and resolved in self.classes:
                    return self.classes[resolved]
            value = owner.attr_values.get(attr)
            if value is None:
                continue
            target = _constructed_class(value)
            if target is None:
                continue
            resolved = self.resolve(owner.module, target)
            if resolved is not None and resolved in self.classes:
                return self.classes[resolved]
        return None

    # ------------------------------------------------------------------ #
    # hierarchy
    # ------------------------------------------------------------------ #

    def mro(self, cls: ClassInfo) -> list[ClassInfo]:
        """Project-local linearization: the class, then bases depth-first."""
        out: list[ClassInfo] = []
        seen: set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            out.append(current)
            for base in current.bases:
                base_cls = self.classes.get(base)
                if base_cls is not None:
                    stack.append(base_cls)
        return out

    def method_owner(self, cls: ClassInfo, method: str) -> ClassInfo | None:
        """The MRO class defining ``method``, or ``None`` if external."""
        for owner in self.mro(cls):
            if method in owner.methods:
                return owner
        return None

    def subclasses_of(self, base_names: Iterable[str]) -> list[ClassInfo]:
        """Every project class whose MRO reaches a base named in ``base_names``.

        Entries may be fully qualified (``repro.streams.relation.StreamObserver``)
        or bare class names (``StreamObserver``), matched against resolved
        base qualnames and their last segment respectively.
        """
        wanted = set(base_names)
        out: list[ClassInfo] = []
        for cls in self.classes.values():
            for ancestor in self.mro(cls):
                hit = any(
                    base in wanted or base.rsplit(".", 1)[-1] in wanted
                    for base in ancestor.bases
                )
                if hit or ancestor.qualname in wanted or ancestor.name in wanted:
                    if ancestor.qualname != cls.qualname or hit:
                        out.append(cls)
                        break
        return out

    # ------------------------------------------------------------------ #
    # call graph
    # ------------------------------------------------------------------ #

    def callees(self, fn: FunctionInfo) -> list[tuple[ast.Call, str]]:
        """Resolved ``(call node, target qualname)`` edges out of ``fn``."""
        return self._callees.get(fn.qualname, [])

    def callers_of(self, qualname: str) -> list[FunctionInfo]:
        """Functions holding a resolved call edge to ``qualname``."""
        return list(self._callers.get(qualname, []))

    def function(self, qualname: str) -> FunctionInfo | None:
        """Look up a function/method; a class qualname maps to ``__init__``."""
        fn = self.functions.get(qualname)
        if fn is not None:
            return fn
        cls = self.classes.get(qualname)
        if cls is not None:
            return cls.methods.get("__init__")
        return None

    def reachable(
        self,
        roots: Iterable[FunctionInfo],
        follow: Callable[[FunctionInfo, ast.Call, FunctionInfo], bool] | None = None,
    ) -> dict[str, FunctionInfo]:
        """Transitive call closure from ``roots`` over resolved edges.

        ``follow(caller, call, callee)`` can prune edges (return ``False``
        to stop traversal down that edge).
        """
        out: dict[str, FunctionInfo] = {}
        stack = list(roots)
        while stack:
            fn = stack.pop()
            if fn.qualname in out:
                continue
            out[fn.qualname] = fn
            for call, target in self.callees(fn):
                callee = self.function(target)
                if callee is None:
                    continue
                if follow is not None and not follow(fn, call, callee):
                    continue
                stack.append(callee)
        return out


# ---------------------------------------------------------------------- #
# AST helpers
# ---------------------------------------------------------------------- #


def _assign_targets(stmt: ast.stmt) -> Iterator[str]:
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                yield target.id
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        yield stmt.target.id


def walk_own(
    func: ast.FunctionDef | ast.AsyncFunctionDef, include_nested: bool = True
) -> Iterator[ast.AST]:
    """Walk a function body; optionally skip nested function bodies."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not include_nested and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _self_stores(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[tuple[ast.AST, str]]:
    """``(store node, attribute name)`` for ``self.x = ...`` / ``self.x[k] = ...``."""
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                yield node, node.attr
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            target = node.value
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield node, target.attr


def _store_value(
    func: ast.FunctionDef | ast.AsyncFunctionDef, store: ast.AST
) -> ast.expr | None:
    """The value expression assigned at a given ``self.x = value`` store."""
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and store in node.targets:
            return node.value
        if isinstance(node, ast.AnnAssign) and node.target is store:
            return node.value
    return None


def _annotation_text(annotation: ast.expr) -> str:
    """Dotted text of an annotation (string annotations unquoted)."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.strip("\"' ")
    text = attr_chain(annotation)
    return text


def constructor_call(value: ast.expr) -> ast.Call | None:
    """The constructor call a value expression wraps, if any.

    Recognizes ``C(...)``, ``[C(...) for ...]``, and ``[C(...), ...]`` —
    the attribute-initialization idioms the concurrency and async rules
    type receivers with (a list of per-shard locks or single-lane pools
    types the same as one).
    """
    if isinstance(value, ast.Call):
        return value
    if isinstance(value, ast.ListComp):
        return constructor_call(value.elt)
    if isinstance(value, (ast.List, ast.Tuple)) and value.elts:
        return constructor_call(value.elts[0])
    return None


def _constructed_class(value: ast.expr) -> str | None:
    """Dotted class name a value expression constructs, if any."""
    call = constructor_call(value)
    if call is None:
        return None
    return call_name(call) or None
