"""Protocol-consistency rules (PROTO001, PROTO002).

The wire vocabulary is declared once — the ``OPERATIONS`` table in
``community/protocol.py`` plus ``register_operation(...)`` extension
calls — and then *used* twice: the server's dispatch table maps each
operation to a handler, and clients encode requests for it through
``make_request``.  PROTO001 checks the three corners of that triangle
against each other, in both directions, so a new operation cannot ship
half-wired and a dead table entry cannot linger.

PROTO002 closes the remaining gap between "wired" and "proven": every
declared operation must also appear in the conformance exchange
scripts (``community/exchanges.py``), which both transport backends
replay with byte-identical transcripts.  A new operation therefore
cannot ship without cross-backend wire coverage.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.analysis.core import Finding, Module, ProjectRule, register
from repro.analysis.astutil import string_value


@register
class ProtocolTriangleRule(ProjectRule):
    code = "PROTO001"
    summary = ("every declared PS_* operation has a server handler and a "
               "client encoder, and vice versa")

    def check_project(self, modules: Iterable[Module]) -> Iterator[Finding]:
        modules = list(modules)
        protocol = _module_at(modules, "community/protocol.py")
        server = _module_at(modules, "community/server.py")
        if protocol is None or server is None:
            # Partial runs (e.g. pre-commit on changed files) cannot see
            # the triangle; the full-tree CI run does.
            return
        if not _package_complete(modules, protocol):
            # Same reason with a subtler failure mode: operations and
            # encoders live in sibling modules (filetransfer, discovery),
            # so judging the triangle from a subset of the package would
            # report ops as unhandled or undeclared when their module
            # simply was not analyzed.
            return
        constants = _ps_constants(modules)

        declared = _declared_operations(modules, protocol, constants)
        handled = _handler_operations(server, constants)
        encoded = _encoder_operations(modules, constants)

        for op, (module, node) in sorted(declared.items()):
            if op not in handled:
                yield _finding(self, module, node,
                               f"operation {op} is declared but has no "
                               f"server handler in community/server.py")
            if op not in encoded:
                yield _finding(self, module, node,
                               f"operation {op} is declared but no client "
                               f"ever encodes it (no make_request call)")
        for op, (module, node) in sorted(handled.items()):
            if op not in declared:
                yield _finding(self, module, node,
                               f"server handles {op} but the protocol "
                               f"tables do not declare it")
        for op, (module, node) in sorted(encoded.items()):
            if op not in declared:
                yield _finding(self, module, node,
                               f"make_request({op}) encodes an operation "
                               f"the protocol tables do not declare")


@register
class ConformanceCoverageRule(ProjectRule):
    code = "PROTO002"
    summary = ("every declared PS_* operation appears in the conformance "
               "exchange scripts (community/exchanges.py)")

    def check_project(self, modules: Iterable[Module]) -> Iterator[Finding]:
        modules = list(modules)
        protocol = _module_at(modules, "community/protocol.py")
        exchanges = _module_at(modules, "community/exchanges.py")
        if protocol is None or exchanges is None:
            # Partial runs (changed-file mode) or projects without a
            # conformance script module (e.g. analyzer test fixtures)
            # cannot be judged; the full-tree CI run can.
            return
        if not _package_complete(modules, protocol):
            return
        constants = _ps_constants(modules)
        declared = _declared_operations(modules, protocol, constants)
        exercised = _exercised_operations(exchanges, constants)
        for op, (module, node) in sorted(declared.items()):
            if op not in exercised:
                yield _finding(self, module, node,
                               f"operation {op} is declared but never "
                               f"exercised by a conformance exchange in "
                               f"community/exchanges.py")


def _exercised_operations(exchanges: Module,
                          constants: dict[str, str]) -> set[str]:
    """Every PS_* operation the exchange scripts reference.

    Counts ``make_request(<op>, ...)`` calls plus any bare ``PS_*``
    constant or literal (raw malformed-request payloads are spelled as
    dict literals on purpose).
    """
    exercised: set[str] = set()
    for node in ast.walk(exchanges.tree):
        op = _resolve_op(node, constants)
        if op is not None:
            exercised.add(op)
    return exercised


def _finding(rule: ProjectRule, module: Module, node: ast.AST,
             message: str) -> Finding:
    return Finding(path=module.display_path,
                   line=getattr(node, "lineno", 1),
                   col=getattr(node, "col_offset", 0),
                   rule=rule.code, message=message)


def _package_complete(modules: list[Module], protocol: Module) -> bool:
    """Whether every module of the protocol's package was analyzed."""
    present = {module.path.resolve() for module in modules}
    return all(sibling.resolve() in present
               for sibling in protocol.path.parent.glob("*.py"))


def _module_at(modules: list[Module], suffix: str) -> Module | None:
    for module in modules:
        if module.display_path.endswith(suffix):
            return module
    return None


def _ps_constants(modules: list[Module]) -> dict[str, str]:
    """Project-wide ``PS_NAME = "literal"`` top-level assignments."""
    constants: dict[str, str] = {}
    for module in modules:
        for node in module.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            value = string_value(node.value)
            if value is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and \
                        target.id.startswith("PS_"):
                    constants[target.id] = value
    return constants


def _resolve_op(node: ast.AST, constants: dict[str, str]) -> str | None:
    """An operation name spelled as a literal, a constant, or an
    attribute on the protocol module (``protocol.PS_X``)."""
    literal = string_value(node)
    if literal is not None:
        return literal if literal.startswith("PS_") else None
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    if isinstance(node, ast.Attribute):
        return constants.get(node.attr)
    return None


Site = tuple[Module, ast.AST]


def _declared_operations(modules: list[Module], protocol: Module,
                         constants: dict[str, str]) -> dict[str, Site]:
    declared: dict[str, Site] = {}
    operations_table = _operations_dict(protocol)
    if operations_table is not None:
        for key in operations_table.keys:
            if key is None:
                continue
            op = _resolve_op(key, constants)
            if op is not None:
                declared.setdefault(op, (protocol, key))
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and \
                    _call_name(node) == "register_operation" and node.args:
                op = _resolve_op(node.args[0], constants)
                if op is not None:
                    declared.setdefault(op, (module, node))
    return declared


def _operations_dict(protocol: Module) -> ast.Dict | None:
    for node in protocol.tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "OPERATIONS" \
                    and isinstance(value, ast.Dict):
                return value
    return None


def _handler_operations(server: Module,
                        constants: dict[str, str]) -> dict[str, Site]:
    """Keys of every dict literal in server.py that maps operations.

    A dict counts as a dispatch table when every key resolves to a
    ``PS_*`` operation — robust to the table being renamed or split.
    """
    handled: dict[str, Site] = {}
    for node in ast.walk(server.tree):
        if not isinstance(node, ast.Dict) or not node.keys:
            continue
        resolved: list[tuple[str, ast.AST]] = []
        for key in node.keys:
            if key is None:
                break
            op = _resolve_op(key, constants)
            if op is None:
                break
            resolved.append((op, key))
        else:
            for op, key in resolved:
                handled.setdefault(op, (server, key))
    return handled


def _encoder_operations(modules: list[Module],
                        constants: dict[str, str]) -> dict[str, Site]:
    encoded: dict[str, Site] = {}
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and \
                    _call_name(node) == "make_request" and node.args:
                op = _resolve_op(node.args[0], constants)
                if op is not None:
                    encoded.setdefault(op, (module, node))
    return encoded


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None
