"""Interprocedural determinism rules (DET001, DET002).

DET001 is the analyzer's one clock and entropy rule.  It reads the
effect fixpoint (:mod:`repro.analysis.effects`): a function whose
effect set holds a host-clock read or an ambient entropy draw — in its
own body (a chain of length zero) or through any chain of helpers — is
a finding when it sits in that effect's scope:

* ``wall-clock``: the sim-path packages and ``shard``;
* ``cpu-time``: the same, except the shard coordinator's busy
  accounting in ``shard/runner.py``, the one sanctioned reader;
* ``ambient-randomness``: every module — every draw goes through a
  named stream so traces replay and parallel sweeps stay
  byte-identical.

Each origin is reported once, at the innermost in-scope function of
its chain: a direct read at its own line and column, a chain that
enters the scope at the call that carries it in, with the route
spelled out.  A helper outside the scope therefore cannot launder a
read — move ``time.time()`` into ``eval/util.py``, call it from
``simenv``, and the ``simenv`` caller is the finding.

DET002 guards the ordering stability of what crosses shard and wire
boundaries: an expression whose order derives from an unordered set —
syntactically, or via a call to a function the effect engine marks
``unordered-return`` — must not reach a ``ShardExchange`` payload or a
serialized frame (``serialize``/``make_request``).
``sorted(...)`` is the sanctioned fix and launders the taint.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.core import (
    ContextRule,
    Finding,
    ProjectContext,
    register,
)
from repro.analysis.effects import (
    AMBIENT_RANDOM,
    CPU_TIME,
    GLOBAL_RANDOM_CALLS,
    UNORDERED_RETURN,
    WALL_CLOCK,
    EffectAnalysis,
    EffectOrigin,
    expression_is_set_ordered,
)
from repro.analysis.callgraph import CallSite, FunctionInfo
from repro.analysis.rules.sim import SIM_PATH_PACKAGES

#: Packages where a host-clock read is a finding: the simulated path
#: and the sharded world, the code the bit-exactness gates referee.
CLOCK_SCOPE_PACKAGES = SIM_PATH_PACKAGES | {"shard"}

#: The one file that may read CPU time: the shard coordinator measures
#: per-shard busy time with ``time.process_time`` because N workers
#: timesharing one host must not book each other's wall time
#: (DESIGN.md §11).
CPU_TIME_COORDINATOR = ("shard", "runner.py")


def _clock_scope(info: FunctionInfo) -> bool:
    return any(part in CLOCK_SCOPE_PACKAGES for part in info.package_parts)


def _cpu_time_scope(info: FunctionInfo) -> bool:
    return _clock_scope(info) and tuple(
        info.module.display_path.split("/")[-2:]) != CPU_TIME_COORDINATOR


#: Effect -> whether a function sits in that effect's scope.
_SCOPES = {
    WALL_CLOCK: _clock_scope,
    CPU_TIME: _cpu_time_scope,
    AMBIENT_RANDOM: lambda info: True,
}

#: What a chain carries.  Only clocks arrive through chains: entropy is
#: in scope everywhere, so every draw is reported where it happens.
_KIND = {WALL_CLOCK: "wall-clock read", CPU_TIME: "CPU-time read"}


@register
class TransitiveNondeterminismRule(ContextRule):
    code = "DET001"
    summary = ("no wall-clock or CPU-time read on the simulated path or "
               "in shard code (CPU time only in shard/runner.py) and no "
               "ambient randomness anywhere, directly or through helpers")

    def check_context(self, context: ProjectContext) -> Iterator[Finding]:
        effects = context.effects
        for effect, in_scope in _SCOPES.items():
            for info, origin, chain in effects.innermost(effect, in_scope):
                if chain:
                    line, col = chain[0][1], info.col
                    message = (
                        f"{_KIND[effect]} reaches {info.qualname} via "
                        f"{effects.route(info, origin, chain)}; derive "
                        f"time from env.now, or hoist the read off the "
                        f"simulated path")
                else:
                    line, col = origin.line, origin.col
                    message = _direct_message(origin)
                yield Finding(path=info.module.display_path, line=line,
                              col=col, rule=self.code, message=message)


def _direct_message(origin: EffectOrigin) -> str:
    """What a direct read is and how to fix it."""
    source = origin.source
    if origin.effect == WALL_CLOCK:
        return (f"wall-clock read {source} on the simulated path; use "
                f"env.now (simulated seconds), or time.process_time for "
                f"the shard coordinator's busy accounting")
    if origin.effect == CPU_TIME:
        return (f"CPU-time read {source} outside the coordinator's busy "
                f"accounting (shard/runner.py); simulated state must "
                f"derive from env.now, not host CPU time")
    if source == "random.Random()":
        return ("unseeded random.Random() is seeded from the OS; derive "
                "one via env.random.stream(name) or pass an explicit seed")
    if source in GLOBAL_RANDOM_CALLS:
        return (f"{source} uses the process-global generator; draw from "
                f"a named env.random.stream(...) instead")
    return (f"{source} draws from the OS entropy pool and can never be "
            f"replayed; draw from a named env.random.stream(...) instead")


#: Call targets whose arguments become exchange payloads or wire bytes.
_WIRE_SINKS = frozenset({"serialize", "make_request"})
_EXCHANGE_TYPES = frozenset({"ShardExchange"})


@register
class UnorderedPayloadRule(ContextRule):
    code = "DET002"
    summary = ("no set-iteration-ordered data in ShardExchange payloads "
               "or serialized wire frames; sort before it escapes")

    def check_context(self, context: ProjectContext) -> Iterator[Finding]:
        graph = context.graph
        effects = context.effects
        for function_id in sorted(graph.functions):
            info = graph.functions[function_id]
            sites = {id(site.node): site
                     for site in graph.calls.get(function_id, ())}
            tainted = _call_tainted_names(info, sites, effects)
            yield from self._check_function(info, sites, tainted, effects)

    def _check_function(self, info: FunctionInfo,
                        sites: dict[int, CallSite], tainted: set[str],
                        effects: EffectAnalysis) -> Iterator[Finding]:
        exchange_names = _exchange_locals(info)
        for node in info.own_nodes:
            payloads: list[tuple[ast.expr, str]] = []
            if isinstance(node, ast.Call):
                sink = _sink_name(node)
                if sink in _EXCHANGE_TYPES:
                    payloads = [(arg, f"{sink}(...) payload")
                                for arg in _payload_args(node)]
                elif sink in _WIRE_SINKS:
                    payloads = [(arg, f"{sink}(...) wire payload")
                                for arg in _payload_args(node)]
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and \
                            isinstance(target.value, ast.Name) and \
                            target.value.id in exchange_names:
                        payloads.append(
                            (node.value,
                             f"{target.value.id}.{target.attr} exchange "
                             f"field"))
            for expr, what in payloads:
                if _payload_tainted(expr, tainted, sites, effects):
                    yield Finding(
                        path=info.module.display_path, line=expr.lineno,
                        col=expr.col_offset, rule=self.code,
                        message=(f"set-iteration order can reach the "
                                 f"{what} in {info.qualname}; shard "
                                 f"exchanges and wire frames must be "
                                 f"ordering-stable — wrap the data in "
                                 f"sorted(...) before it escapes"))


def _sink_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _payload_args(call: ast.Call) -> list[ast.expr]:
    return [*call.args, *[kw.value for kw in call.keywords]]


def _exchange_locals(info: FunctionInfo) -> set[str]:
    """Names bound to a freshly constructed exchange in this body."""
    names: set[str] = set()
    for node in info.own_nodes:
        if isinstance(node, ast.Assign) and \
                isinstance(node.value, ast.Call) and \
                _sink_name(node.value) in _EXCHANGE_TYPES:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _call_tainted_names(info: FunctionInfo, sites: dict[int, CallSite],
                        effects: EffectAnalysis) -> set[str]:
    """Locals assigned from calls to unordered-return functions."""
    tainted: set[str] = set()
    for node in info.own_nodes:
        if isinstance(node, ast.Assign) and \
                isinstance(node.value, ast.Call) and \
                _call_is_unordered(node.value, sites, effects):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    tainted.add(target.id)
    return tainted


def _call_is_unordered(call: ast.Call, sites: dict[int, CallSite],
                       effects: EffectAnalysis) -> bool:
    site = sites.get(id(call))
    if site is None:
        return False
    return any(UNORDERED_RETURN in effects.effects_of(callee)
               for callee in site.callees)


def _payload_tainted(expr: ast.expr, tainted: set[str],
                     sites: dict[int, CallSite],
                     effects: EffectAnalysis) -> bool:
    if isinstance(expr, ast.Call):
        name = _sink_name(expr)
        if name == "sorted":
            return False
        if _call_is_unordered(expr, sites, effects):
            return True
        if name in {"list", "tuple"} and expr.args:
            return _payload_tainted(expr.args[0], tainted, sites, effects)
    return expression_is_set_ordered(expr, tainted)
