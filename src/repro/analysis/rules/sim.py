"""Simulation-determinism rules (SIM001-SIM006).

SIM001-SIM004 and SIM006 encode the contract that makes Table 8
timings and parallel sweeps byte-identical: simulated code computes
*only* from the simulation state — the event clock, the named random
streams, and the deterministic data structures feeding them.  SIM005
guards the allocation discipline of the per-event hot loop (DESIGN.md
§10).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.core import FileRule, Finding, Module, ScopeTracker, register
from repro.analysis.effects import (
    BLOCKING_CALLS,
    BLOCKING_PREFIXES,
    CPU_TIME_READS,
    GLOBAL_RANDOM_CALLS,
    WALL_CLOCK_READS,
)
from repro.analysis.rules.helpers import (
    import_aliases,
    in_packages,
    qualified_name,
    statically_a_set,
)

#: Packages whose code runs on the simulated path.  ``eval`` and
#: ``msc`` are deliberately absent: the harness measures wall clocks
#: and writes report files by design.
SIM_PATH_PACKAGES = frozenset(
    {"simenv", "net", "radio", "peerhood", "community", "mobility"}
)

#: Wall-clock reads.  Any of these on the simulated path couples event
#: outcomes to host speed.  The call tables live in
#: :mod:`repro.analysis.effects` — the effect engine and the file-local
#: rules must never disagree about what counts as a clock.  SIM001
#: also bans CPU-time reads here: on the simulated path even
#: ``process_time`` is a host-dependent input (the shard coordinator's
#: accounting is governed separately by SHARD002).
_WALL_CLOCK = WALL_CLOCK_READS | CPU_TIME_READS

#: Module-level functions of :mod:`random` — the shared, process-global
#: generator no named stream controls.
_GLOBAL_RANDOM = GLOBAL_RANDOM_CALLS

#: Blocking or I/O-bound calls that must never run inside a simenv
#: process coroutine — they stall every simulated device at once.
_BLOCKING_PREFIXES = BLOCKING_PREFIXES
_BLOCKING_CALLS = BLOCKING_CALLS


class _SimPathRule(FileRule):
    """Base for rules scoped to the simulated-path packages."""

    def applies_to(self, module: Module) -> bool:
        return in_packages(module.display_path, SIM_PATH_PACKAGES)


@register
class WallClockRule(_SimPathRule):
    code = "SIM001"
    summary = ("no wall-clock reads (time.time/perf_counter/datetime.now) "
               "in sim-path modules")

    def check(self, module: Module) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            qualified = qualified_name(node, aliases)
            if qualified in _WALL_CLOCK:
                yield self.finding(
                    module, node,
                    f"wall-clock read {qualified} on the simulated path; "
                    f"use env.now (simulated seconds) instead")


@register
class GlobalRandomRule(FileRule):
    """SIM002 applies to the whole tree: *every* draw goes through a
    named stream so traces replay and parallel sweeps stay
    byte-identical."""

    code = "SIM002"
    summary = ("no global random module / unseeded random.Random(); draw "
               "from env.random.stream(name)")

    def check(self, module: Module) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                qualified = qualified_name(node.func, aliases)
                if qualified == "random.Random" and not node.args \
                        and not node.keywords:
                    yield self.finding(
                        module, node,
                        "unseeded random.Random() is seeded from the OS; "
                        "derive one via env.random.stream(name) or pass an "
                        "explicit seed")
                elif qualified == "random.SystemRandom":
                    yield self.finding(
                        module, node,
                        "random.SystemRandom draws from the OS entropy pool "
                        "and can never be replayed")
            elif isinstance(node, (ast.Attribute, ast.Name)):
                qualified = qualified_name(node, aliases)
                if qualified in _GLOBAL_RANDOM:
                    yield self.finding(
                        module, node,
                        f"{qualified} uses the process-global generator; "
                        f"draw from a named env.random.stream(...) instead")


@register
class BlockingCallRule(_SimPathRule):
    code = "SIM003"
    summary = ("no blocking calls (time.sleep/socket/file I/O) inside "
               "simenv process coroutines")

    def check(self, module: Module) -> Iterator[Finding]:
        rule = self
        aliases = import_aliases(module.tree)
        findings: list[Finding] = []

        class Visitor(ScopeTracker):
            def visit_Call(self, node: ast.Call) -> None:
                if self.in_generator():
                    message = _blocking_call_message(node, aliases)
                    if message is not None:
                        findings.append(rule.finding(module, node, message))
                self.generic_visit(node)

        Visitor().visit(module.tree)
        yield from findings


def _blocking_call_message(node: ast.Call, aliases: dict[str, str]) -> str | None:
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open" \
            and "open" not in aliases:
        return ("builtin open() inside a process coroutine blocks the "
                "event loop; do file I/O outside the simulation or via a "
                "simulated store")
    qualified = qualified_name(func, aliases)
    if qualified is None:
        return None
    if qualified in _BLOCKING_CALLS or \
            qualified.startswith(_BLOCKING_PREFIXES):
        return (f"blocking call {qualified} inside a process coroutine "
                f"stalls every simulated device; yield a simenv timer or "
                f"move the work off the simulated path")
    return None


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
        aliases = import_aliases(module.tree)
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
    "framing.py", "buffers.py", "medium.py", "sweep.py",
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
        aliases = import_aliases(module.tree)
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


