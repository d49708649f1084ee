"""Simulation-determinism rules (SIM003-SIM006).

SIM003, SIM004 and SIM006 encode the contract that makes Table 8
timings and parallel sweeps byte-identical: simulated code computes
*only* from the simulation state — the event clock and the
deterministic data structures feeding it.  (Clock and entropy reads
are DET001's, in :mod:`repro.analysis.rules.det`.)  SIM005 guards the
allocation discipline of the per-event hot loop (DESIGN.md §10).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutil import in_packages, qualified_name, statically_a_set
from repro.analysis.callgraph import FunctionInfo
from repro.analysis.core import (
    ContextRule,
    FileRule,
    Finding,
    Module,
    ProjectContext,
    ScopeTracker,
    register,
)
from repro.analysis.effects import BLOCKING_IO

#: Packages whose code runs on the simulated path.  ``eval`` and
#: ``msc`` are deliberately absent: the harness measures wall clocks
#: and writes report files by design.
SIM_PATH_PACKAGES = frozenset(
    {"simenv", "net", "radio", "peerhood", "community", "mobility"}
)


class _SimPathRule(FileRule):
    """Base for rules scoped to the simulated-path packages."""

    def applies_to(self, module: Module) -> bool:
        return in_packages(module.display_path, SIM_PATH_PACKAGES)


def _process_coroutine(info: FunctionInfo) -> bool:
    """A generator on the simulated path: a simenv process body."""
    return any(part in SIM_PATH_PACKAGES for part in info.package_parts) \
        and info.is_generator


@register
class BlockingCallRule(ContextRule):
    """A process coroutine whose effects hold ``blocking-io``, directly
    or through the helpers it calls."""

    code = "SIM003"
    summary = ("no blocking calls (time.sleep/socket/file I/O) inside "
               "simenv process coroutines, even through helpers")

    def check_context(self, context: ProjectContext) -> Iterator[Finding]:
        effects = context.effects
        for info, origin, chain in effects.innermost(BLOCKING_IO,
                                                     _process_coroutine):
            if chain:
                line, col = chain[0][1], info.col
                message = (f"blocking call reaches process coroutine "
                           f"{info.qualname} via "
                           f"{effects.route(info, origin, chain)}; it "
                           f"stalls every simulated device, so yield a "
                           f"simenv timer or move the work off the "
                           f"simulated path")
            else:
                line, col = origin.line, origin.col
                message = _blocking_message(origin.source)
            yield Finding(path=info.module.display_path, line=line,
                          col=col, rule=self.code, message=message)


def _blocking_message(source: str) -> str:
    """What a direct blocking call is and how to fix it."""
    if source == "open":
        return ("builtin open() inside a process coroutine blocks the "
                "event loop; do file I/O outside the simulation or via a "
                "simulated store")
    return (f"blocking call {source} inside a process coroutine stalls "
            f"every simulated device; yield a simenv timer or move the "
            f"work off the simulated path")


@register
class UnorderedIterationRule(_SimPathRule):
    code = "SIM004"
    summary = ("no direct iteration over sets in sim-path modules; wrap "
               "in sorted(...)")

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                targets = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                targets = [generator.iter for generator in node.generators]
            else:
                continue
            for target in targets:
                if statically_a_set(target):
                    yield self.finding(
                        module, target,
                        "iteration over an unordered set; the order feeds "
                        "simulation state, so wrap it in sorted(...)")


@register
class ObjectAddressRule(_SimPathRule):
    code = "SIM006"
    summary = ("no builtin id() in sim-path modules; addresses are not "
               "simulation state")

    def check(self, module: Module) -> Iterator[Finding]:
        aliases = module.aliases
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Name):
                address = (node.id == "id" and "id" not in aliases
                           and isinstance(node.ctx, ast.Load))
            elif isinstance(node, ast.Attribute):
                address = qualified_name(node, aliases) == "builtins.id"
            else:
                continue
            if address:
                yield self.finding(
                    module, node,
                    "id() is an object's address, which any unrelated "
                    "allocation can move; order or key by a value the "
                    "simulation assigns (a device id, a creation order)")


#: Modules on the per-event hot loop: every scheduled event runs
#: through them, so one allocation here multiplies by the ~75k events
#: a 30-second 1,024-device crowd fires.  Scoped by *filename* inside
#: the sim-path packages because the packages also hold the designated
#: serialization boundary (``net/messages.py`` owns json) and stats
#: snapshots (``dict(...)`` copies in ``faults.py``/``retry.py``) that
#: run once per report, not once per event.
HOT_LOOP_MODULES = frozenset({
    "events.py", "environment.py", "process.py", "clock.py",
    "framing.py", "medium.py", "sweep.py",
})

#: Serialization calls that re-encode per event; the boundary modules
#: own these, the hot loop reuses their pre-built encoder/decoder.
_HOT_LOOP_SERIALIZE = frozenset({
    "json.dumps", "json.loads", "json.dump", "json.load",
    "copy.copy", "copy.deepcopy", "pickle.dumps", "pickle.loads",
})


@register
class HotLoopAllocationRule(_SimPathRule):
    code = "SIM005"
    summary = ("no json/pickle/copy serialization or dict(...) "
               "copy-construction inside hot-loop modules")

    def applies_to(self, module: Module) -> bool:
        return (super().applies_to(module)
                and module.display_path.rsplit("/", 1)[-1]
                in HOT_LOOP_MODULES)

    def check(self, module: Module) -> Iterator[Finding]:
        rule = self
        aliases = module.aliases
        findings: list[Finding] = []

        class Visitor(ScopeTracker):
            def visit_Call(self, node: ast.Call) -> None:
                # Module-level setup (pre-built encoders, constants)
                # runs once per import and is fine; only function
                # bodies sit on the per-event path.
                if self.current_function() is not None:
                    message = _hot_loop_call_message(node, aliases)
                    if message is not None:
                        findings.append(rule.finding(module, node, message))
                self.generic_visit(node)

        Visitor().visit(module.tree)
        yield from findings


def _hot_loop_call_message(node: ast.Call,
                           aliases: dict[str, str]) -> str | None:
    func = node.func
    if isinstance(func, ast.Name) and func.id == "dict" \
            and "dict" not in aliases and node.args:
        return ("dict(...) copy-construction allocates a fresh mapping "
                "per event on the hot loop; mutate in place or hoist "
                "the copy out of the per-event path")
    qualified = qualified_name(func, aliases)
    if qualified in _HOT_LOOP_SERIALIZE:
        return (f"{qualified} re-serializes per event on the hot loop; "
                f"the boundary module (net/messages.py) owns encoding — "
                f"reuse its pre-built encoder outside the event path")
    return None


