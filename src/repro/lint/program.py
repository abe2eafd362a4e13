"""Whole-program model: symbol table, call graph, fork reachability.

Per-file AST rules cannot see the defects that sharded execution
creates: a module-level fan-out slot clobbered by a nested call, a memo
dict growing without bound across scenarios, an attribute rebinding that
detaches an alias held by another method, a milliseconds value flowing
into a ``_s`` parameter two modules away. This module builds the
project-wide context those rules need:

* a **symbol table** of module-level slots (mutable containers and
  rebindable globals) with every read, growth, shrink and rebind site
  attributed to the function performing it;
* an approximate **call graph** over every function and method, using
  import-aware name resolution plus a class-hierarchy-less fallback for
  method calls on unknown receivers (``pairer.pair_all()`` links to any
  program class defining ``pair_all``);
* the set of **fork roots** — callables handed to
  ``multiprocessing.Pool`` dispatch methods, pool initializers, or the
  fan-out entry points in :mod:`repro.core.parallel` — and the functions
  **fork-reachable** from them;
* per-class **attribute aliasing** facts (which methods rebind
  ``self._x`` to a fresh container, which methods hold a local alias of
  or iterate ``self._x``).

Audited shared state is declared inline on its definition line with
``# repro-lint: fork-shared(<why>)``; the justification is mandatory.
The model is purely syntactic and deliberately over-approximate: it
never executes code, and an unresolvable call simply contributes no
edge (or, for method calls, a name-matched approximation).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from repro.lint.engine import FileContext

_FORK_PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*fork-shared\(([^)]*)\)")

#: Container methods that grow their receiver.
_GROW_METHODS = frozenset(
    {"add", "append", "appendleft", "extend", "insert", "setdefault", "update"}
)

#: Container methods that shrink (or empty) their receiver.
_SHRINK_METHODS = frozenset(
    {"clear", "discard", "pop", "popitem", "popleft", "remove"}
)

#: Callables whose result is a fresh mutable container.
_CONTAINER_FACTORIES = frozenset(
    {"Counter", "OrderedDict", "defaultdict", "deque", "dict", "list", "set", "sorted"}
)

#: ``multiprocessing.Pool`` dispatch methods whose callable argument
#: executes in a worker process.
_POOL_DISPATCH = frozenset(
    {"apply", "apply_async", "imap", "imap_unordered", "map", "map_async", "starmap", "starmap_async"}
)

#: In-repo fan-out entry points: qualname -> (positional index, keyword
#: name) of the callable parameter that runs in fork workers.
FORK_DISPATCHERS: dict[str, tuple[int, str]] = {
    "repro.core.parallel.run_scenarios": (1, "task"),
}

#: Method names that belong to builtin containers/strings; an unknown
#: receiver calling one of these is almost never a program method, so
#: the name-matched fallback skips them to keep the call graph tight.
_BUILTIN_METHOD_NAMES = frozenset(
    {
        "add", "append", "appendleft", "capitalize", "clear", "copy", "count",
        "decode", "discard", "encode", "endswith", "extend", "format", "get",
        "index", "insert", "intersection", "isdigit", "items", "join", "keys",
        "lower", "lstrip", "pop", "popitem", "popleft", "remove", "replace",
        "reverse", "rstrip", "setdefault", "sort", "split", "splitlines",
        "startswith", "strip", "title", "union", "update", "upper", "values",
    }
)


def _fork_pragma(line_text: str) -> tuple[bool, str]:
    """``(present, justification)`` of a fork-shared pragma on *line_text*."""
    match = _FORK_PRAGMA_RE.search(line_text)
    if match is None:
        return False, ""
    return True, match.group(1).strip()


def _is_fresh_container(node: ast.expr) -> bool:
    """Does *node* evaluate to a brand-new container object?"""
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _CONTAINER_FACTORIES
    return False


def _is_mutable_container_value(node: ast.expr | None) -> bool:
    """Is a module-level assignment's value a mutable container?"""
    return node is not None and _is_fresh_container(node)


@dataclass(slots=True)
class AccessSite:
    """One function's access to a module-level slot."""

    function: str  # qualname of the accessor ("<module>" for module level)
    node: ast.AST


@dataclass(slots=True)
class GlobalSlot:
    """One module-level binding and everything the program does to it."""

    module: str
    name: str
    node: ast.AST
    line_text: str
    is_container: bool
    pragma: bool = False
    pragma_reason: str = ""
    read_by: list[AccessSite] = field(default_factory=list)
    grown_by: list[AccessSite] = field(default_factory=list)
    shrunk_by: list[AccessSite] = field(default_factory=list)
    rebound_by: list[AccessSite] = field(default_factory=list)

    @property
    def qualname(self) -> str:
        """Dotted ``module.name`` of this slot."""
        return f"{self.module}.{self.name}"

    def accessors(self) -> set[str]:
        """Qualnames of every function touching this slot."""
        return {
            site.function
            for sites in (self.read_by, self.grown_by, self.shrunk_by, self.rebound_by)
            for site in sites
        }

    def mutators(self) -> set[str]:
        """Qualnames of functions that mutate or rebind this slot."""
        return {
            site.function
            for sites in (self.grown_by, self.shrunk_by, self.rebound_by)
            for site in sites
        }


@dataclass(slots=True)
class CallSite:
    """One call expression inside a function body.

    ``target`` is the resolved callee qualname (possibly external, e.g.
    ``random.Random``) or None; ``exact`` is False for the name-matched
    method fallback, whose argument bindings are too fuzzy for dataflow.
    ``via_attribute`` distinguishes ``obj.m(...)`` (positional args bind
    after ``self``) from plain ``f(...)``.
    """

    node: ast.Call
    target: str | None
    exact: bool
    via_attribute: bool
    extra_targets: tuple[str, ...] = ()


@dataclass(slots=True)
class FunctionInfo:
    """One function or method in the program."""

    qualname: str
    module: str
    name: str
    class_name: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: list[str] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)


@dataclass(slots=True)
class AttributeUse:
    """One method's use of a ``self.<attr>`` slot."""

    method: str  # bare method name
    node: ast.AST


@dataclass(slots=True)
class ClassInfo:
    """One class: its methods and how they treat ``self`` attributes."""

    qualname: str
    module: str
    name: str
    methods: dict[str, str] = field(default_factory=dict)  # bare name -> qualname
    #: attr -> rebinds of ``self.attr`` to a fresh container outside __init__
    attr_rebinds: dict[str, list[AttributeUse]] = field(default_factory=dict)
    #: attr -> ``local = self.attr`` alias bindings
    attr_aliases: dict[str, list[AttributeUse]] = field(default_factory=dict)
    #: attr -> ``for .. in self.attr`` / ``while self.attr`` iteration sites
    attr_iterations: dict[str, list[AttributeUse]] = field(default_factory=dict)


class _ModuleImports:
    """Import tables of one module: local name -> module / (module, attr)."""

    def __init__(self, tree: ast.Module) -> None:
        self.modules: dict[str, str] = {}
        self.objects: dict[str, tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    dotted = alias.name if alias.asname else alias.name.split(".")[0]
                    self.modules[local] = dotted
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.objects[alias.asname or alias.name] = (node.module, alias.name)


def _local_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[set[str], set[str]]:
    """``(locals, globals)`` bound inside *func* (excluding nested defs)."""
    declared_global: set[str] = set()
    bound: set[str] = set()
    arguments = func.args
    for arg in (
        *arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
        *(a for a in (arguments.vararg, arguments.kwarg) if a is not None),
    ):
        bound.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
            bound.add(node.name)
    return bound - declared_global, declared_global


class ProgramModel:
    """The project-wide symbol table, call graph and fork-reachability set."""

    def __init__(self) -> None:
        self.modules: dict[str, FileContext] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.slots: dict[str, GlobalSlot] = {}  # "module.name" -> slot
        self.call_edges: dict[str, set[str]] = {}
        self.fork_roots: set[str] = set()
        self.fork_reachable: set[str] = set()
        self._imports: dict[str, _ModuleImports] = {}
        self._methods_by_name: dict[str, list[str]] = {}

    # -- construction ----------------------------------------------------

    @classmethod
    def build(cls, contexts: Iterable[FileContext]) -> "ProgramModel":
        """Build the model over *contexts* (one per parsed source file)."""
        model = cls()
        ordered = sorted(contexts, key=lambda ctx: ctx.module)
        for ctx in ordered:
            model._index_module(ctx)
        for ctx in ordered:
            model._scan_module(ctx)
        model._compute_reachability()
        return model

    def context_for(self, module: str) -> FileContext:
        """The :class:`FileContext` of *module*."""
        return self.modules[module]

    def _index_module(self, ctx: FileContext) -> None:
        """First pass: declare every function, class and module slot."""
        self.modules[ctx.module] = ctx
        self._imports[ctx.module] = _ModuleImports(ctx.tree)
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._declare_function(ctx.module, stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                info = ClassInfo(
                    qualname=f"{ctx.module}.{stmt.name}", module=ctx.module, name=stmt.name
                )
                self.classes[info.qualname] = info
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        declared = self._declare_function(ctx.module, item, class_name=stmt.name)
                        info.methods[item.name] = declared.qualname
                        self._methods_by_name.setdefault(item.name, []).append(declared.qualname)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                self._declare_slot(ctx, stmt)

    def _declare_function(
        self,
        module: str,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
    ) -> FunctionInfo:
        qualname = (
            f"{module}.{class_name}.{node.name}" if class_name else f"{module}.{node.name}"
        )
        arguments = node.args
        params = [
            arg.arg
            for arg in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs)
        ]
        info = FunctionInfo(
            qualname=qualname,
            module=module,
            name=node.name,
            class_name=class_name,
            node=node,
            params=params,
        )
        self.functions[qualname] = info
        return info

    def _declare_slot(self, ctx: FileContext, stmt: ast.Assign | ast.AnnAssign) -> None:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        value = stmt.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            line_text = ctx.lines[stmt.lineno - 1] if stmt.lineno <= len(ctx.lines) else ""
            pragma, reason = _fork_pragma(line_text)
            self.slots[f"{ctx.module}.{target.id}"] = GlobalSlot(
                module=ctx.module,
                name=target.id,
                node=stmt,
                line_text=line_text.strip(),
                is_container=_is_mutable_container_value(value),
                pragma=pragma,
                pragma_reason=reason,
            )

    # -- second pass: function bodies ------------------------------------

    def _scan_module(self, ctx: FileContext) -> None:
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_function(ctx, stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._scan_function(ctx, item, class_name=stmt.name)

    def _scan_function(
        self,
        ctx: FileContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
    ) -> None:
        qualname = (
            f"{ctx.module}.{class_name}.{func.name}" if class_name else f"{ctx.module}.{func.name}"
        )
        info = self.functions[qualname]
        imports = self._imports[ctx.module]
        local, declared_global = _local_names(func)
        edges = self.call_edges.setdefault(qualname, set())

        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                site = self._resolve_call(node, ctx.module, imports, class_name)
                info.calls.append(site)
                for target in (site.target, *site.extra_targets):
                    if target is not None and target in self.functions:
                        edges.add(target)
                    elif target is not None and f"{target}.__init__" in self.functions:
                        edges.add(f"{target}.__init__")
                self._note_fork_dispatch(node, site, ctx.module, imports, class_name)
            elif isinstance(node, ast.Name):
                self._note_slot_name(node, qualname, ctx.module, imports, local, declared_global)
            elif isinstance(node, ast.Global):
                continue
            if class_name is not None:
                self._note_attribute_use(node, ctx.module, class_name, func.name)

        self._note_slot_mutations(func, qualname, ctx.module, imports, local, declared_global)

    # -- slot accounting -------------------------------------------------

    def _slot_for_name(
        self,
        name: str,
        module: str,
        imports: _ModuleImports,
        local: set[str],
        declared_global: set[str],
    ) -> GlobalSlot | None:
        if name in local:
            return None
        if name in declared_global or name not in imports.objects:
            slot = self.slots.get(f"{module}.{name}")
            if slot is not None:
                return slot
        bound = imports.objects.get(name)
        if bound is not None:
            return self.slots.get(f"{bound[0]}.{bound[1]}")
        return None

    def _note_slot_name(
        self,
        node: ast.Name,
        function: str,
        module: str,
        imports: _ModuleImports,
        local: set[str],
        declared_global: set[str],
    ) -> None:
        if not isinstance(node.ctx, ast.Load):
            return
        slot = self._slot_for_name(node.id, module, imports, local, declared_global)
        if slot is not None:
            slot.read_by.append(AccessSite(function=function, node=node))

    def _note_slot_mutations(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        module: str,
        imports: _ModuleImports,
        local: set[str],
        declared_global: set[str],
    ) -> None:
        def slot_of(expr: ast.expr) -> GlobalSlot | None:
            if isinstance(expr, ast.Name):
                return self._slot_for_name(expr.id, module, imports, local, declared_global)
            return None

        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id in declared_global:
                        slot = self.slots.get(f"{module}.{target.id}")
                        if slot is not None:
                            slot.rebound_by.append(AccessSite(function=qualname, node=node))
                    elif isinstance(target, ast.Subscript):
                        slot = slot_of(target.value)
                        if slot is not None:
                            slot.grown_by.append(AccessSite(function=qualname, node=node))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if node.target.id in declared_global:
                    slot = self.slots.get(f"{module}.{node.target.id}")
                    if slot is not None:
                        slot.rebound_by.append(AccessSite(function=qualname, node=node))
            elif isinstance(node, ast.AugAssign):
                target = node.target
                if isinstance(target, ast.Name) and target.id in declared_global:
                    slot = self.slots.get(f"{module}.{target.id}")
                    if slot is not None:
                        slot.rebound_by.append(AccessSite(function=qualname, node=node))
                elif isinstance(target, ast.Subscript):
                    slot = slot_of(target.value)
                    if slot is not None:
                        slot.grown_by.append(AccessSite(function=qualname, node=node))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        slot = slot_of(target.value)
                        if slot is not None:
                            slot.shrunk_by.append(AccessSite(function=qualname, node=node))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                slot = slot_of(node.func.value)
                if slot is not None:
                    if node.func.attr in _GROW_METHODS:
                        slot.grown_by.append(AccessSite(function=qualname, node=node))
                    elif node.func.attr in _SHRINK_METHODS:
                        slot.shrunk_by.append(AccessSite(function=qualname, node=node))

    # -- attribute aliasing (ALIAS001 facts) -----------------------------

    @staticmethod
    def _self_attr(expr: ast.expr) -> str | None:
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return expr.attr
        return None

    def _note_attribute_use(
        self, node: ast.AST, module: str, class_name: str, method: str
    ) -> None:
        info = self.classes[f"{module}.{class_name}"]
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            attr = self._self_attr(target)
            if (
                attr is not None
                and _is_fresh_container(node.value)
                and method not in ("__init__", "__new__", "__post_init__")
            ):
                info.attr_rebinds.setdefault(attr, []).append(
                    AttributeUse(method=method, node=node)
                )
            value_attr = self._self_attr(node.value)
            if value_attr is not None and isinstance(target, ast.Name):
                info.attr_aliases.setdefault(value_attr, []).append(
                    AttributeUse(method=method, node=node)
                )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            attr = self._self_attr(node.iter)
            if attr is not None:
                info.attr_iterations.setdefault(attr, []).append(
                    AttributeUse(method=method, node=node)
                )
        elif isinstance(node, ast.While):
            attr = self._self_attr(node.test)
            if attr is not None:
                info.attr_iterations.setdefault(attr, []).append(
                    AttributeUse(method=method, node=node)
                )

    # -- call resolution -------------------------------------------------

    def resolve_callable_ref(
        self,
        expr: ast.expr,
        module: str,
        class_name: str | None = None,
    ) -> str | None:
        """The qualname a Name/Attribute reference resolves to, if any.

        Resolution is import-aware and may return external dotted names
        (``random.Random``) — callers check membership in
        :attr:`functions` / :attr:`classes` when they need an in-program
        target.
        """
        imports = self._imports[module]
        if isinstance(expr, ast.Name):
            name = expr.id
            if f"{module}.{name}" in self.functions:
                return f"{module}.{name}"
            if f"{module}.{name}" in self.classes:
                return f"{module}.{name}"
            bound = imports.objects.get(name)
            if bound is not None:
                return f"{bound[0]}.{bound[1]}"
            return None
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            base = expr.value.id
            if base in ("self", "cls") and class_name is not None:
                candidate = f"{module}.{class_name}.{expr.attr}"
                if candidate in self.functions:
                    return candidate
                return None
            dotted_base = imports.modules.get(base)
            if dotted_base is not None:
                return f"{dotted_base}.{expr.attr}"
            if f"{module}.{base}" in self.classes:
                candidate = f"{module}.{base}.{expr.attr}"
                if candidate in self.functions:
                    return candidate
            bound = imports.objects.get(base)
            if bound is not None:
                return f"{bound[0]}.{bound[1]}.{expr.attr}"
        return None

    def _resolve_call(
        self,
        node: ast.Call,
        module: str,
        imports: _ModuleImports,
        class_name: str | None,
    ) -> CallSite:
        func = node.func
        target = self.resolve_callable_ref(func, module, class_name)
        via_attribute = isinstance(func, ast.Attribute)
        if target is not None:
            resolved = target
            if target in self.classes:
                resolved = f"{target}.__init__"
                via_attribute = True  # constructor args bind after self
            return CallSite(node=node, target=resolved, exact=True, via_attribute=via_attribute)
        # Name-matched fallback for method calls on unknown receivers:
        # link to every program class defining this method name, except
        # names that collide with builtin container/string methods.
        if isinstance(func, ast.Attribute) and func.attr not in _BUILTIN_METHOD_NAMES:
            candidates = tuple(self._methods_by_name.get(func.attr, ()))
            if candidates:
                return CallSite(
                    node=node,
                    target=candidates[0],
                    exact=False,
                    via_attribute=True,
                    extra_targets=candidates[1:],
                )
        return CallSite(node=node, target=None, exact=False, via_attribute=via_attribute)

    # -- fork roots ------------------------------------------------------

    def _note_fork_dispatch(
        self,
        node: ast.Call,
        site: CallSite,
        module: str,
        imports: _ModuleImports,
        class_name: str | None,
    ) -> None:
        def root_from(expr: ast.expr) -> None:
            target = self.resolve_callable_ref(expr, module, class_name)
            if target is None:
                # A bound method of a receiver the model cannot type
                # (``generator.run_shard``): call resolution's name-matched
                # fallback.
                if isinstance(expr, ast.Attribute) and expr.attr not in _BUILTIN_METHOD_NAMES:
                    self.fork_roots.update(self._methods_by_name.get(expr.attr, ()))
                return
            if target in self.functions:
                self.fork_roots.add(target)
            elif f"{target}.__call__" in self.functions:
                self.fork_roots.add(f"{target}.__call__")

        # pool.apply_async(f, ...) and friends — receiver identity unknown,
        # but the method-name vocabulary is specific enough.
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _POOL_DISPATCH:
            if node.args:
                root_from(node.args[0])
            for keyword in node.keywords:
                if keyword.arg == "func":
                    root_from(keyword.value)
        # Pool(initializer=f) — any call carrying an initializer keyword.
        for keyword in node.keywords:
            if keyword.arg == "initializer":
                root_from(keyword.value)
        # In-repo fan-out entry points (repro.core.parallel.run_scenarios).
        dispatcher = FORK_DISPATCHERS.get(site.target or "")
        if dispatcher is not None:
            index, keyword_name = dispatcher
            if len(node.args) > index:
                root_from(node.args[index])
            for keyword in node.keywords:
                if keyword.arg == keyword_name:
                    root_from(keyword.value)

    def _compute_reachability(self) -> None:
        seen: set[str] = set(self.fork_roots)
        frontier = list(self.fork_roots)
        while frontier:
            current = frontier.pop()
            for callee in self.call_edges.get(current, ()):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        self.fork_reachable = seen

    # -- queries used by rules -------------------------------------------

    def fork_reachable_accessors(self, slot: GlobalSlot) -> list[str]:
        """Fork-reachable functions that touch *slot*, sorted."""
        return sorted(slot.accessors() & self.fork_reachable)

    def iter_slots(self) -> Iterator[GlobalSlot]:
        """Every module-level slot, in deterministic order."""
        for qualname in sorted(self.slots):
            yield self.slots[qualname]

    def iter_classes(self) -> Iterator[ClassInfo]:
        """Every class, in deterministic order."""
        for qualname in sorted(self.classes):
            yield self.classes[qualname]

    def iter_functions(self) -> Iterator[FunctionInfo]:
        """Every function, in deterministic order."""
        for qualname in sorted(self.functions):
            yield self.functions[qualname]


def build_program(contexts: Sequence[FileContext]) -> ProgramModel:
    """Convenience wrapper: the :class:`ProgramModel` over *contexts*."""
    return ProgramModel.build(contexts)
