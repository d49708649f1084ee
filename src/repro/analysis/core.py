"""Rule framework for the simulation-safety analyzer.

A :class:`Module` is one parsed source file.  Rules come in two shapes:

* :class:`FileRule` — examines one module at a time.  Subclasses
  implement :meth:`FileRule.check` and yield :class:`Finding`\\ s; the
  :class:`ScopeTracker` helper says which function a node sits in.
* :class:`ProjectRule` — examines the whole module set at once, for
  cross-file consistency checks like the protocol/handler/encoder
  triangle.

Rules self-register via the :func:`register` decorator so the runner,
the CLI, and the tests all agree on the active rule set without a
hand-maintained list.

Suppressions are **scoped and explicit**: a ``# repro: allow[DET001]``
comment at module level silences that rule for the whole file, while
the same comment *inside a function body* silences it only for
findings within that function's line span — the preferred, surgical
form.  Every suppression is parsed into a :class:`Suppression` record
so the runner can count the findings each one absorbs, report them,
and gate their number — an allowance is visible debt, never a silent
one.

Interprocedural rules (DET, SHARD001, SIM003) run through a
:class:`ProjectContext` that builds the call graph and effect fixpoint
once per analysis run and shares them across every
:class:`ContextRule`.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from collections.abc import Iterable, Iterator

from repro.analysis.astutil import import_aliases


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """``path:line:col: RULE message`` — the human report line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass(frozen=True, order=True)
class Suppression:
    """One ``# repro: allow[RULE]`` comment.

    ``scope`` is ``"file"`` for module-level comments; for a comment
    inside a function body it is that function's dotted qualname and
    ``span`` holds the function's (first, last) line — only findings
    inside the span are absorbed.
    """

    path: str
    line: int
    rule: str
    reason: str
    scope: str = "file"
    span: tuple[int, int] | None = field(default=None, compare=False,
                                         repr=False)

    def covers(self, line: int) -> bool:
        return self.span is None or self.span[0] <= line <= self.span[1]

    def render(self) -> str:
        reason = f" ({self.reason})" if self.reason else ""
        where = "" if self.scope == "file" else f" in {self.scope}"
        return f"{self.path}:{self.line}: allow[{self.rule}]{where}{reason}"

    def to_json(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "reason": self.reason,
            "scope": self.scope,
        }


#: Matches the allow-marker comment form: ``repro:`` then the rule
#: codes in square brackets, optionally ``-- reason`` after them.
_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[A-Z0-9_,\s]+)\]"
    r"(?:\s*(?:--|—)\s*(?P<reason>.*))?"
)


@dataclass
class Module:
    """A parsed source file plus everything rules need to inspect it."""

    path: Path
    #: Path as reported in findings — repo-relative where possible.
    display_path: str
    source: str
    tree: ast.Module
    suppressions: list[Suppression] = field(default_factory=list)

    @cached_property
    def aliases(self) -> dict[str, str]:
        """Local name -> qualified import (:func:`import_aliases`),
        computed once and shared by the resolver and every rule."""
        return import_aliases(self.tree)


def parse_module(path: Path, root: Path | None = None) -> Module:
    """Parse ``path`` into a :class:`Module`.

    Raises :class:`SyntaxError` for unparsable source — the runner
    turns that into a finding rather than crashing the whole run.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    display = _display_path(path, root)
    suppressions = _parse_suppressions(source, display, tree)
    return Module(path=path, display_path=display, source=source,
                  tree=tree, suppressions=suppressions)


def _display_path(path: Path, root: Path | None) -> str:
    if root is not None:
        with contextlib.suppress(ValueError):
            return path.resolve().relative_to(root.resolve()).as_posix()
    return path.as_posix()


def _parse_suppressions(source: str, display_path: str,
                        tree: ast.Module) -> list[Suppression]:
    """Collect allow-comments from real COMMENT tokens only, so the
    marker can be *mentioned* in strings and docstrings without
    registering a suppression.

    A comment whose line falls inside a function body is scoped to the
    innermost such function; anywhere else it is file-scoped.
    """
    suppressions: list[Suppression] = []
    lines = io.StringIO(source)
    try:
        tokens = list(tokenize.generate_tokens(lines.readline))
    except tokenize.TokenError:
        return suppressions
    spans = _function_spans(tree)
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _ALLOW_RE.search(token.string)
        if match is None:
            continue
        reason = (match.group("reason") or "").strip()
        scope, span = _innermost_span(spans, token.start[0])
        for rule in match.group("rules").split(","):
            rule = rule.strip()
            if rule:
                suppressions.append(Suppression(
                    path=display_path, line=token.start[0],
                    rule=rule, reason=reason, scope=scope, span=span))
    return suppressions


def _function_spans(tree: ast.Module) -> list[tuple[int, int, str]]:
    """(first line, last line, qualname) for every function in the file."""
    spans: list[tuple[int, int, str]] = []

    def walk(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}"
                spans.append((node.lineno, node.end_lineno or node.lineno,
                              qualname))
                walk(node.body, f"{qualname}.")
            elif isinstance(node, ast.ClassDef):
                walk(node.body, f"{prefix}{node.name}.")

    walk(tree.body, "")
    return spans


def _innermost_span(spans: list[tuple[int, int, str]],
                    line: int) -> tuple[str, tuple[int, int] | None]:
    """The tightest function span containing ``line`` (or file scope)."""
    best: tuple[int, int, str] | None = None
    for start, end, qualname in spans:
        if start <= line <= end and \
                (best is None or end - start < best[1] - best[0]):
            best = (start, end, qualname)
    if best is None:
        return "file", None
    return best[2], (best[0], best[1])


class Rule:
    """Common surface of every rule: a code and a one-line summary."""

    #: Stable identifier, e.g. ``"DET001"`` — what suppressions name.
    code: str = ""
    #: One-line description shown by ``scripts/check.py --list-rules``.
    summary: str = ""


class FileRule(Rule):
    """A rule that inspects one module at a time."""

    def applies_to(self, module: Module) -> bool:
        """Whether this rule runs on ``module`` (default: every file)."""
        return True

    def check(self, module: Module) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: Module, node: ast.AST, message: str) -> Finding:
        return Finding(path=module.display_path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       rule=self.code, message=message)


class ProjectRule(Rule):
    """A rule that inspects the whole module set for consistency."""

    def check_project(self, modules: Iterable[Module]) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectContext:
    """Shared interprocedural state for one analysis run.

    The call graph and the effect fixpoint are built lazily, once, and
    shared by every :class:`ContextRule` — three rules asking for
    effects cost one fixpoint.  Imports are deferred because the graph
    modules import this one.
    """

    def __init__(self, modules: list[Module]) -> None:
        self.modules = modules
        self._graph = None
        self._effects = None

    @property
    def graph(self):  # -> repro.analysis.callgraph.CallGraph
        if self._graph is None:
            from repro.analysis.callgraph import build_call_graph
            self._graph = build_call_graph(self.modules)
        return self._graph

    @property
    def effects(self):  # -> repro.analysis.effects.EffectAnalysis
        if self._effects is None:
            from repro.analysis.effects import analyze_effects
            self._effects = analyze_effects(self.modules, graph=self.graph)
        return self._effects


class ContextRule(Rule):
    """A project rule that reads the shared interprocedural context."""

    def check_context(self, context: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}


def register(rule_class: type) -> type:
    """Class decorator adding a rule (by its ``code``) to the registry."""
    rule = rule_class()
    if not rule.code:
        raise ValueError(f"{rule_class.__name__} has no code")
    if rule.code in _REGISTRY and type(_REGISTRY[rule.code]) is not rule_class:
        raise ValueError(f"duplicate rule code {rule.code!r}")
    _REGISTRY[rule.code] = rule
    return rule_class


def all_rules() -> list[Rule]:
    """Registered rules, ordered by code."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def rule_codes() -> list[str]:
    return sorted(_REGISTRY)


class ScopeTracker(ast.NodeVisitor):
    """Tree walk that maintains the function-nesting context rules need.

    Subclasses get :attr:`function_stack` (innermost last) while their
    ``visit_*`` methods run.
    """

    def __init__(self) -> None:
        self.function_stack: list[ast.AST] = []

    def current_function(self) -> ast.AST | None:
        return self.function_stack[-1] if self.function_stack else None

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._walk_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._walk_function(node)

    def _walk_function(self, node: ast.AST) -> None:
        self.function_stack.append(node)
        try:
            self.generic_visit(node)
        finally:
            self.function_stack.pop()
