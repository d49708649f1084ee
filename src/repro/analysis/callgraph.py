"""Project-wide call graph over parsed modules.

A rule that sees one tree at a time is defeated by a one-line helper:
move ``time.time()`` into ``util.py`` and the sim-path module that
calls it looks clean.  This module builds the structure the
interprocedural rules need — an *entry* for every function and method
in the analyzed module set, at any nesting depth, plus one
``<module>`` entry per module for its import-time code and class
bodies, so every line of code belongs to exactly one entry — and a
call edge for every call site the resolver can attribute to one of
them.  Each entry keeps its own body's nodes, collected by the one
walk that indexes it, for the resolver, the effect seeding and the
context rules to read.

Resolution is deliberately layered from precise to conservative:

* **local** — a bare name defined at the top level of the same module
  (functions, or classes resolving to their ``__init__``);
* **import** — a name or attribute chain rooted at an import, matched
  against the analyzed modules by dotted-path suffix, so ``from
  pkg.util import clock`` finds ``pkg/util/clock.py`` wherever the
  analysis root sits;
* **self** — ``self.m()`` inside a class body resolves to that class's
  own method;
* **typed** — ``x.m()`` where ``x`` is a parameter annotated with a
  project class, a local assigned from a project-class constructor, or
  a ``self.attr`` the class's ``__init__`` assigns from one;
* **name** — anything else of the form ``obj.m()`` falls back to
  *every* method named ``m`` in the project.  Dynamic dispatch we
  cannot type is over-approximated, never silently dropped: a spurious
  edge can at worst cause a reviewable false positive, a missing edge
  would hide a real nondeterminism leak.

Calls that resolve to nothing in the project (builtins, stdlib,
third-party) are recorded with their qualified external name when the
alias map can spell one — the effect inference reads those to seed
direct effects — and land in :attr:`CallGraph.unresolved` otherwise.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from collections.abc import Iterable

from repro.analysis.core import Module
from repro.analysis.astutil import qualified_name

#: Stable identifier of one analyzed function: ``<display_path>::<qualname>``.
FunctionId = str

#: Qualname of the entry holding a module's import-time code.
MODULE_ENTRY = "<module>"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class FunctionInfo:
    """One function, method or ``<module>`` body in the analyzed set."""

    function_id: FunctionId
    module: Module
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module
    #: Dotted nesting inside the module, e.g. ``ShardSim.collect_exchange``.
    qualname: str
    #: Enclosing class name for methods, ``None`` for plain functions.
    class_name: str | None
    #: Every node of this entry's own body: nested ``def``\\ s are
    #: entries of their own and pruned, while lambda and class bodies
    #: run as part of this body and stay.
    own_nodes: list[ast.AST] = field(default_factory=list, repr=False)

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]

    @property
    def col(self) -> int:
        """Column of the ``def`` (0 for a ``<module>`` entry)."""
        return getattr(self.node, "col_offset", 0)

    @cached_property
    def package_parts(self) -> tuple[str, ...]:
        return tuple(self.module.display_path.split("/")[:-1])

    @cached_property
    def is_generator(self) -> bool:
        """Whether the body yields: a simenv process coroutine."""
        return any(isinstance(node, (ast.Yield, ast.YieldFrom))
                   for node in self.own_nodes)


@dataclass
class CallSite:
    """One call expression, attributed to the function containing it."""

    caller: FunctionId
    node: ast.Call
    #: Resolved project callees (several under name-fallback dispatch).
    callees: tuple[FunctionId, ...] = ()
    #: Qualified external name (``time.time``) when no project callee.
    external: str | None = None
    #: How the callee was found: local/import/self/typed/name/unresolved.
    resolution: str = "unresolved"

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class CallGraph:
    """Functions plus resolved call edges for one analyzed module set."""

    functions: dict[FunctionId, FunctionInfo] = field(default_factory=dict)
    #: caller -> every call site in its body (nested defs excluded:
    #: their calls belong to the nested function).
    calls: dict[FunctionId, list[CallSite]] = field(default_factory=dict)
    #: callee -> call sites that may dispatch to it (reverse edges).
    callers: dict[FunctionId, list[CallSite]] = field(default_factory=dict)
    #: Call sites no layer could resolve (dynamic, builtin, lambda...).
    unresolved: list[CallSite] = field(default_factory=list)


def build_call_graph(modules: Iterable[Module]) -> CallGraph:
    """Index every function in ``modules`` and resolve their call sites."""
    modules = list(modules)
    index = _ProjectIndex(modules)
    graph = CallGraph(functions=index.functions)
    for module in modules:
        resolver = _ModuleResolver(index, module)
        for info in index.functions_of(module):
            sites = resolver.resolve_calls(info)
            graph.calls[info.function_id] = sites
            for site in sites:
                if not site.callees and site.external is None:
                    graph.unresolved.append(site)
                for callee in site.callees:
                    graph.callers.setdefault(callee, []).append(site)
    return graph


# -- project-wide symbol index ----------------------------------------------


class _ProjectIndex:
    """Symbols the resolver looks up: functions, classes, module paths.

    Every ``def`` is an entry, but only module-scope functions and
    classes (and those classes' methods) enter the symbol tables.  A
    method of a class at any depth is a name-fallback target
    (``methods_by_name``), since an untyped receiver can hold an
    instance of a nested class; a closure never is.
    """

    def __init__(self, modules: list[Module]) -> None:
        self.functions: dict[FunctionId, FunctionInfo] = {}
        #: module -> its entries, ``<module>`` first, then defs in
        #: source order (pre-order: nested defs follow their parent).
        self._per_module: dict[str, list[FunctionInfo]] = {}
        #: module display path -> module-scope name -> FunctionInfo.
        self.module_functions: dict[str, dict[str, FunctionInfo]] = {}
        #: module display path -> module-scope class name ->
        #: {method name -> info}.
        self.module_classes: dict[str, dict[str, dict[str, FunctionInfo]]] = {}
        #: class name -> {method name -> info} across the whole project
        #: (first definition wins on duplicate class names; lookups that
        #: matter are module-scoped first).
        self.classes: dict[str, dict[str, FunctionInfo]] = {}
        #: method name -> every method with that name (name fallback).
        self.methods_by_name: dict[str, list[FunctionInfo]] = {}
        #: dotted-path parts of each module, for import resolution.
        self._module_parts: list[tuple[tuple[str, ...], Module]] = []
        for module in modules:
            self._index_module(module)

    def _index_module(self, module: Module) -> None:
        path = module.display_path
        self._per_module[path] = []
        self.module_functions[path] = {}
        self.module_classes[path] = {}
        parts = tuple(path[:-3].split("/"))  # strip ".py"
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        self._module_parts.append((parts, module))
        entry = FunctionInfo(function_id=f"{path}::{MODULE_ENTRY}",
                             module=module, node=module.tree,
                             qualname=MODULE_ENTRY, class_name=None)
        self._add(entry)
        self._index_body(entry, prefix="")

    def _add(self, info: FunctionInfo) -> None:
        self.functions[info.function_id] = info
        self._per_module[info.module.display_path].append(info)

    def _index_body(self, owner: FunctionInfo, prefix: str) -> None:
        """Collect ``owner``'s own nodes and index every def inside it."""
        path = owner.module.display_path
        defs: list[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str,
                         str | None, dict[str, FunctionInfo] | None]] = []
        self._walk(owner, owner.node, prefix, None, None, defs)
        defs.sort(key=lambda found: (found[0].lineno, found[0].col_offset))
        for node, def_prefix, class_name, methods in defs:
            qualname = f"{def_prefix}{node.name}"
            function_id = f"{path}::{qualname}"
            if function_id in self.functions:
                # A redefinition, e.g. a property's setter: both run.
                function_id += f"@{node.lineno}"
            info = FunctionInfo(function_id=function_id,
                                module=owner.module, node=node,
                                qualname=qualname, class_name=class_name)
            self._add(info)
            if not def_prefix:
                self.module_functions[path][node.name] = info
            elif class_name is not None:
                if methods is not None:
                    methods[node.name] = info
                self.methods_by_name.setdefault(node.name, []).append(info)
            self._index_body(info, prefix=f"{qualname}.")

    def _walk(self, owner: FunctionInfo, root: ast.AST, prefix: str,
              class_name: str | None,
              methods: dict[str, FunctionInfo] | None,
              defs: list) -> None:
        """Append ``root``'s descendants to ``owner.own_nodes``.

        A ``def`` is queued in ``defs`` with its qualname prefix and
        enclosing class instead of being entered; a class body is
        walked in place under the class's prefix.  ``methods`` is the
        class's symbol-table entry, ``None`` unless the class sits at
        module scope.
        """
        own = owner.own_nodes
        stack = list(ast.iter_child_nodes(root))
        while stack:
            node = stack.pop()
            if isinstance(node, _DEFS):
                defs.append((node, prefix, class_name, methods))
                continue
            own.append(node)
            if isinstance(node, ast.ClassDef):
                table: dict[str, FunctionInfo] | None = None
                if not prefix:
                    table = {}
                    path = owner.module.display_path
                    self.module_classes[path][node.name] = table
                    self.classes.setdefault(node.name, table)
                self._walk(owner, node, f"{prefix}{node.name}.", node.name,
                           table, defs)
            else:
                stack.extend(ast.iter_child_nodes(node))

    def functions_of(self, module: Module) -> list[FunctionInfo]:
        return self._per_module[module.display_path]

    def resolve_module(self, dotted: str) -> Module | None:
        """Match a dotted import path against the analyzed modules.

        Tries the full part sequence first, then progressively drops
        leading components, so ``repro.shard.engine`` finds
        ``shard/engine.py`` under an analysis root of ``src/repro``.
        The longest-suffix match wins; ties resolve to the first
        module in path order (deterministic).
        """
        want = tuple(dotted.split("."))
        for start in range(len(want)):
            suffix = want[start:]
            for parts, module in self._module_parts:
                if len(parts) >= len(suffix) and \
                        parts[-len(suffix):] == suffix:
                    return module
        return None

    def resolve_qualified(self,
                          qualified: str) -> tuple[str, tuple[str, ...]] | None:
        """Split a dotted chain into (module display path, remainder).

        The longest dotted prefix naming an analyzed module wins, so
        ``pkg.mod.Class.method`` resolves to ``pkg/mod.py`` with
        remainder ``("Class", "method")`` rather than mistaking
        ``Class`` for a module.
        """
        parts = qualified.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = self.resolve_module(".".join(parts[:split]))
            if module is not None:
                return module.display_path, tuple(parts[split:])
        return None


# -- per-module call resolution ---------------------------------------------


class _ModuleResolver:
    def __init__(self, index: _ProjectIndex, module: Module) -> None:
        self.index = index
        self.module = module
        self.aliases = module.aliases
        #: class name -> attribute name -> class name, from ``__init__``
        #: assignments and class-level annotations.
        self._attr_types = self._infer_attribute_types()

    # -- type inference ------------------------------------------------

    def _infer_attribute_types(self) -> dict[str, dict[str, str]]:
        types: dict[str, dict[str, str]] = {}
        classes = self.index.module_classes[self.module.display_path]
        for node in self.module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            attrs: dict[str, str] = {}
            types[node.name] = attrs
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and \
                        isinstance(item.target, ast.Name):
                    cls = self._class_named(item.annotation)
                    if cls is not None:
                        attrs[item.target.id] = cls
            init = classes.get(node.name, {}).get("__init__")
            for stmt in init.own_nodes if init is not None else ():
                if isinstance(stmt, ast.Assign) and \
                        isinstance(stmt.value, ast.Call):
                    cls = self._constructed_class(stmt.value)
                    if cls is None:
                        continue
                    for target in stmt.targets:
                        if isinstance(target, ast.Attribute) and \
                                isinstance(target.value, ast.Name) \
                                and target.value.id == "self":
                            attrs[target.attr] = cls
        return types

    def _class_named(self, node: ast.AST) -> str | None:
        """A project class an annotation or constructor name denotes."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body \
                if _parses_as_name(node.value) else node
        if isinstance(node, ast.Name):
            if node.id in self.index.module_classes[self.module.display_path]:
                return node.id
            dotted = self.aliases.get(node.id)
            if dotted is not None:
                return self._qualified_class(dotted)
            return None
        if isinstance(node, ast.Attribute):
            dotted = qualified_name(node, self.aliases)
            if dotted is not None:
                return self._qualified_class(dotted)
        return None

    def _qualified_class(self, dotted: str) -> str | None:
        resolved = self.index.resolve_qualified(dotted)
        if resolved is not None:
            path, remainder = resolved
            if len(remainder) == 1 and \
                    remainder[0] in self.index.module_classes.get(path, {}):
                return remainder[0]
        return None

    def _constructed_class(self, call: ast.Call) -> str | None:
        return self._class_named(call.func)

    def _class_methods(self, class_name: str) -> dict[str, FunctionInfo]:
        local = self.index.module_classes[self.module.display_path]
        if class_name in local:
            return local[class_name]
        return self.index.classes.get(class_name, {})

    # -- call resolution -----------------------------------------------

    def resolve_calls(self, info: FunctionInfo) -> list[CallSite]:
        local_types = self._local_types(info)
        calls = [node for node in info.own_nodes
                 if isinstance(node, ast.Call)]
        calls.sort(key=lambda node: (node.lineno, node.col_offset))
        return [self._resolve_call(info, call, local_types)
                for call in calls]

    def _local_types(self, info: FunctionInfo) -> dict[str, str]:
        """Parameter annotations plus constructor-assigned locals."""
        types: dict[str, str] = {}
        args = getattr(info.node, "args", None)
        if args is not None:
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if arg.annotation is not None:
                    cls = self._class_named(arg.annotation)
                    if cls is not None:
                        types[arg.arg] = cls
        for node in info.own_nodes:
            if isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Call):
                cls = self._constructed_class(node.value)
                if cls is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            types[target.id] = cls
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                cls = self._class_named(node.annotation)
                if cls is not None:
                    types[node.target.id] = cls
        return types

    def _resolve_call(self, info: FunctionInfo, call: ast.Call,
                      local_types: dict[str, str]) -> CallSite:
        func = call.func
        site = CallSite(caller=info.function_id, node=call)
        if isinstance(func, ast.Name):
            return self._resolve_name_call(site, func.id)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute_call(site, info, func, local_types)
        return site  # lambda/subscript/call-of-call: unresolved

    def _resolve_name_call(self, site: CallSite, name: str) -> CallSite:
        path = self.module.display_path
        local = self.index.module_functions[path].get(name)
        if local is not None:
            site.callees = (local.function_id,)
            site.resolution = "local"
            return site
        local_class = self.index.module_classes[path].get(name)
        if local_class is not None:
            return self._class_construction(site, local_class, "local")
        dotted = self.aliases.get(name)
        if dotted is not None:
            return self._resolve_dotted(site, dotted)
        return site

    def _class_construction(self, site: CallSite,
                            methods: dict[str, FunctionInfo],
                            resolution: str) -> CallSite:
        init = methods.get("__init__")
        site.resolution = resolution
        if init is not None:
            site.callees = (init.function_id,)
        return site

    def _resolve_dotted(self, site: CallSite, dotted: str) -> CallSite:
        resolved = self.index.resolve_qualified(dotted)
        if resolved is not None:
            path, remainder = resolved
            if len(remainder) == 1:
                symbol = remainder[0]
                function = self.index.module_functions.get(path,
                                                           {}).get(symbol)
                if function is not None:
                    site.callees = (function.function_id,)
                    site.resolution = "import"
                    return site
                methods = self.index.module_classes.get(path, {}).get(symbol)
                if methods is not None:
                    return self._class_construction(site, methods, "import")
            elif len(remainder) == 2:
                # ``mod.Class.method`` — an unbound-method reference.
                methods = self.index.module_classes.get(path,
                                                        {}).get(remainder[0])
                if methods is not None and remainder[1] in methods:
                    site.callees = (methods[remainder[1]].function_id,)
                    site.resolution = "import"
                    return site
        site.external = dotted
        return site

    def _resolve_attribute_call(self, site: CallSite, info: FunctionInfo,
                                func: ast.Attribute,
                                local_types: dict[str, str]) -> CallSite:
        dotted = qualified_name(func, self.aliases)
        if dotted is not None:
            return self._resolve_dotted(site, dotted)
        method = func.attr
        receiver = func.value
        if isinstance(receiver, ast.Name):
            if receiver.id == "self" and info.class_name is not None:
                own = self._class_methods(info.class_name).get(method)
                if own is not None:
                    site.callees = (own.function_id,)
                    site.resolution = "self"
                    return site
            cls = local_types.get(receiver.id)
            if cls is not None:
                typed = self._class_methods(cls).get(method)
                if typed is not None:
                    site.callees = (typed.function_id,)
                    site.resolution = "typed"
                    return site
        elif isinstance(receiver, ast.Attribute) and \
                isinstance(receiver.value, ast.Name) and \
                receiver.value.id == "self" and info.class_name is not None:
            attr_cls = self._attr_types.get(info.class_name,
                                            {}).get(receiver.attr)
            if attr_cls is not None:
                typed = self._class_methods(attr_cls).get(method)
                if typed is not None:
                    site.callees = (typed.function_id,)
                    site.resolution = "typed"
                    return site
        candidates = self.index.methods_by_name.get(method, ())
        if candidates:
            site.callees = tuple(sorted(candidate.function_id
                                        for candidate in candidates))
            site.resolution = "name"
        return site


# -- tree helpers ------------------------------------------------------------


def _parses_as_name(text: str) -> bool:
    try:
        return isinstance(ast.parse(text, mode="eval").body,
                          (ast.Name, ast.Attribute))
    except SyntaxError:
        return False
