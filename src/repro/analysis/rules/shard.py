"""Sharded-engine safety rule (SHARD001).

The bit-exactness of the sharded engine (DESIGN.md §9/§11) rests on
ghosts being read-only, which the runtime gates can only sample.  A
ghost replica's state is owned by another shard; every mutation must
route through the exchange — ``apply_exchange`` and its
install/uninstall helpers.  A write anywhere else silently forks the
replica from its owner, and the divergence only surfaces if
``verify_ghosts`` happens to run.  SHARD001 flags attribute/item
writes on values drawn from a ``ghosts`` mapping, and — via the
parameter-mutation fixpoint — ghost state handed to a helper that
writes to its parameter.

(The shard package's clock discipline — CPU time for the coordinator's
busy accounting only — is one of DET001's scopes.)
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutil import in_packages
from repro.analysis.core import ContextRule, Finding, ProjectContext, register
from repro.analysis.effects import MUTATOR_METHODS, call_mutates_argument
from repro.analysis.callgraph import FunctionInfo

_SHARD_PACKAGE = frozenset({"shard"})

#: Functions allowed to write ghost state: the exchange apply path and
#: its population helpers (the migration path runs through them too).
GHOST_WRITE_ALLOWED = frozenset({"apply_exchange", "_install", "_uninstall"})


@register
class GhostMutationRule(ContextRule):
    code = "SHARD001"
    summary = ("ghost-owned DeviceState is read-only outside the "
               "exchange apply path (engine.apply_exchange and its "
               "install helpers)")

    def check_context(self, context: ProjectContext) -> Iterator[Finding]:
        graph = context.graph
        effects = context.effects
        for function_id in sorted(graph.functions):
            info = graph.functions[function_id]
            if not in_packages(info.module.display_path, _SHARD_PACKAGE):
                continue
            if info.name in GHOST_WRITE_ALLOWED:
                continue
            ghost_names = _ghost_bound_names(info)
            sites = {id(site.node): site
                     for site in graph.calls.get(function_id, ())}
            for node in info.own_nodes:
                yield from self._check_node(info, node, ghost_names,
                                            sites, effects, graph)

    def _check_node(self, info: FunctionInfo, node: ast.AST,
                    ghost_names: set[str], sites, effects,
                    graph) -> Iterator[Finding]:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if _is_ghost_write_target(target, ghost_names):
                    yield self._finding(
                        info, node,
                        "assigns to ghost-owned state; ghosts are "
                        "replicas of another shard's devices — route the "
                        "write through the exchange (apply_exchange)")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and \
                    func.attr in MUTATOR_METHODS and \
                    _expr_is_ghost(func.value, ghost_names):
                yield self._finding(
                    info, node,
                    f"calls mutating .{func.attr}(...) on ghost-owned "
                    f"state outside the exchange apply path")
            else:
                site = sites.get(id(node))
                if site is not None:
                    for position, arg in enumerate(node.args):
                        if not _expr_is_ghost(arg, ghost_names):
                            continue
                        culprit = call_mutates_argument(effects, site,
                                                        position)
                        if culprit is not None:
                            callee = graph.functions[culprit]
                            yield self._finding(
                                info, node,
                                f"passes ghost-owned state to "
                                f"{callee.qualname} "
                                f"({callee.module.display_path}), which "
                                f"mutates that parameter; ghosts are "
                                f"read-only outside the exchange apply "
                                f"path")

    def _finding(self, info: FunctionInfo, node: ast.AST,
                 message: str) -> Finding:
        return Finding(path=info.module.display_path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       rule=self.code,
                       message=f"{info.qualname} {message}")


def _ghosts_attribute(node: ast.AST) -> bool:
    """``<anything>.ghosts`` — the ghost bucket of a shard sim."""
    return isinstance(node, ast.Attribute) and node.attr == "ghosts"


def _ghost_value_expr(node: ast.AST) -> bool:
    """An expression that reads a value out of a ghosts mapping."""
    if isinstance(node, ast.Subscript) and _ghosts_attribute(node.value):
        return True
    if isinstance(node, ast.Call) and \
            isinstance(node.func, ast.Attribute) and \
            node.func.attr == "get" and _ghosts_attribute(node.func.value):
        return True
    return False


def _expr_is_ghost(node: ast.AST, ghost_names: set[str]) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ghost_names
    return _ghost_value_expr(node)


def _is_ghost_write_target(target: ast.AST, ghost_names: set[str]) -> bool:
    """``g.x = ...`` / ``g[k] = ...`` where ``g`` is ghost-derived."""
    if isinstance(target, (ast.Attribute, ast.Subscript)):
        return _expr_is_ghost(target.value, ghost_names)
    return False


def _ghost_bound_names(info: FunctionInfo) -> set[str]:
    """Locals bound to ghost values: subscripts, ``.get``, loop targets
    over ``.values()``/``.items()`` of a ghosts mapping."""
    names: set[str] = set()
    for node in info.own_nodes:
        if isinstance(node, ast.Assign) and \
                _ghost_value_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            iterable = node.iter
            target = node.target
            if isinstance(iterable, ast.Call) and \
                    isinstance(iterable.func, ast.Attribute) and \
                    _ghosts_attribute(iterable.func.value):
                method = iterable.func.attr
                if method == "values" and isinstance(target, ast.Name):
                    names.add(target.id)
                elif method == "items" and \
                        isinstance(target, ast.Tuple) and \
                        len(target.elts) == 2 and \
                        isinstance(target.elts[1], ast.Name):
                    names.add(target.elts[1].id)
    return names
