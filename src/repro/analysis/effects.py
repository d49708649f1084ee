"""Per-function effect inference over the project call graph.

Each call-graph entry (function, method or ``<module>`` body) gets an
*effect set* — the determinism-relevant things running it may do —
seeded from its own body and propagated caller-ward to a fixpoint over
:mod:`repro.analysis.callgraph`:

* ``wall-clock`` — reads a host wall clock (``time.time``,
  ``time.perf_counter``, ``datetime.now``...);
* ``cpu-time`` — reads a CPU-time counter (``time.process_time``),
  the sanctioned primitive for critical-path accounting and a
  determinism hazard everywhere else;
* ``ambient-randomness`` — draws entropy no named stream controls
  (the global :mod:`random` functions, unseeded ``random.Random()``,
  ``uuid.uuid4``, ``os.urandom``, anything in :mod:`secrets`);
* ``blocking-io`` — calls that block on the host (``time.sleep``,
  sockets, subprocesses, file I/O);
* ``unordered-return`` — the function's return value can depend on
  the iteration order of an unordered collection (set iteration that
  escapes through ``return`` without a ``sorted(...)``).

The clock and entropy kinds are seeded from every *load* of a table
name, called or not: ``key=time.time``, ``clock = time.perf_counter``
and ``def f(clock=time.monotonic)`` hand the clock to code that will
call it.  ``blocking-io`` and the unseeded ``random.Random()`` are
seeded from call sites, since only calling them blocks or draws.  These
tables are the analyzer's one definition of a clock, an entropy source
and a blocking call; DET001 and SIM003 query the effect sets and match
no names themselves.

The first four propagate along **every** call edge — if a callee may
read the clock, so may its caller.  ``unordered-return`` propagates
only through *return-positioned* calls (``return g(...)`` or ``x =
g(...); return x``): calling an order-unstable helper is harmless
until its result escapes.

Separately, the engine infers **parameter mutation**: which of a
function's parameters it may assign attributes or items on (directly,
or by passing them onward to a mutating callee).  SHARD001 uses this
to catch ghost state handed to a helper that writes to it.

Every inherited effect keeps an origin chain — caller, call line,
next hop, down to the function holding the direct read — so a finding
can say *how* the clock reaches the simulated path, not just that it
does.  The lattice is finite (origins are drawn from direct sites
only) and effect sets grow monotonically, so the worklist fixpoint
terminates on cyclic call graphs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator

from repro.analysis.callgraph import (
    CallGraph,
    CallSite,
    FunctionId,
    FunctionInfo,
    build_call_graph,
)
from repro.analysis.core import Module
from repro.analysis.astutil import qualified_name, statically_a_set

# -- effect kinds ------------------------------------------------------------

WALL_CLOCK = "wall-clock"
CPU_TIME = "cpu-time"
AMBIENT_RANDOM = "ambient-randomness"
BLOCKING_IO = "blocking-io"
UNORDERED_RETURN = "unordered-return"

#: Kinds that propagate along every call edge.
TRANSITIVE_EFFECTS = frozenset({WALL_CLOCK, CPU_TIME, AMBIENT_RANDOM,
                                BLOCKING_IO})

# -- the canonical call tables ------------------------------------------------

#: Host wall-clock reads: couple outcomes to when/how fast the host runs.
WALL_CLOCK_READS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: CPU-time reads: legitimate in coordinator busy accounting
#: (``shard/runner.py``), nondeterministic input anywhere else.
CPU_TIME_READS = frozenset({
    "time.process_time", "time.process_time_ns",
    "time.thread_time", "time.thread_time_ns",
})

#: Module-level functions of :mod:`random` — the shared, process-global
#: generator no named stream controls.
GLOBAL_RANDOM_CALLS = frozenset({
    "random.random", "random.uniform", "random.randint", "random.randrange",
    "random.choice", "random.choices", "random.sample", "random.shuffle",
    "random.getrandbits", "random.randbytes", "random.seed",
    "random.getstate", "random.setstate", "random.gauss",
    "random.normalvariate", "random.lognormvariate", "random.expovariate",
    "random.betavariate", "random.gammavariate", "random.paretovariate",
    "random.triangular", "random.vonmisesvariate", "random.weibullvariate",
    "random.binomialvariate",
})

#: Entropy sources beyond the global generator: the OS entropy pool.
OS_ENTROPY_CALLS = frozenset({
    "uuid.uuid1", "uuid.uuid4", "os.urandom", "os.getrandom",
    "random.SystemRandom",
})

_SECRETS_PREFIX = "secrets."

#: Blocking or I/O-bound calls.
BLOCKING_PREFIXES = ("socket.", "subprocess.", "urllib.", "http.client.",
                     "requests.", "select.")
BLOCKING_CALLS = frozenset({
    "time.sleep", "os.open", "os.read", "os.write", "os.system",
    "io.open",
})

#: Methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "append", "add", "update", "extend", "insert", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "sort", "reverse",
})


@dataclass(frozen=True)
class EffectOrigin:
    """The direct site an inherited effect traces back to."""

    effect: str
    #: Function whose body contains the direct read/draw/iteration.
    holder: FunctionId
    #: What was read — an external qualified name (``time.time``) or a
    #: short description for syntactic origins (``set iteration``).
    source: str
    #: Line and column of the direct site, inside ``holder``'s module
    #: (two reads on one line are two origins).
    line: int
    col: int


#: One propagation step: (callee the effect arrived through, call line).
Step = tuple[FunctionId, int]


class EffectAnalysis:
    """Effect sets, origin chains and parameter mutation at fixpoint."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        #: function -> origin -> the step it arrived through (None =
        #: the origin's direct site is in this very function).
        self._origins: dict[FunctionId, dict[EffectOrigin, Step | None]] = {}
        #: function -> parameter name -> line of the (possibly
        #: inherited) mutation evidence.
        self._mutated: dict[FunctionId, dict[str, int]] = {}
        #: function -> ``id()`` of call nodes in return position.
        self._return_sites: dict[FunctionId, set[int]] = {}
        self._seed_direct()
        self._fixpoint()

    # -- queries -------------------------------------------------------

    def effects_of(self, function_id: FunctionId) -> set[str]:
        return {origin.effect
                for origin in self._origins.get(function_id, ())}

    def origins_of(self, function_id: FunctionId,
                   effect: str | None = None) -> list[EffectOrigin]:
        origins = self._origins.get(function_id, {})
        keep = [origin for origin in origins
                if effect is None or origin.effect == effect]
        return sorted(keep, key=lambda o: (o.effect, o.holder, o.line,
                                           o.col, o.source))

    def chain(self, function_id: FunctionId,
              origin: EffectOrigin) -> list[Step]:
        """Call hops from ``function_id`` down to the origin's holder.

        Empty when the direct site is in ``function_id`` itself.
        """
        steps: list[Step] = []
        current = function_id
        seen = {current}
        while True:
            step = self._origins.get(current, {}).get(origin)
            if step is None:
                return steps
            callee, _line = step
            steps.append(step)
            if callee in seen:  # cyclic graph: chain already witnessed
                return steps
            seen.add(callee)
            current = callee

    def mutated_params(self, function_id: FunctionId) -> dict[str, int]:
        """Parameter names this function may mutate, with witness lines."""
        return dict(self._mutated.get(function_id, {}))

    def innermost(self, effect: str,
                  in_scope: Callable[[FunctionInfo], bool]
                  ) -> Iterator[tuple[FunctionInfo, EffectOrigin, list[Step]]]:
        """Each origin of ``effect`` at the innermost in-scope function
        of its chain, as ``(function, origin, chain)``.

        An in-scope function holding the effect is yielded unless some
        callee on its chain down to the direct site is in scope too:
        that callee speaks for the origin, and callers further out
        would repeat it.  A direct site in scope therefore comes back
        once, with an empty chain.
        """
        functions = self.graph.functions
        for function_id in sorted(functions):
            info = functions[function_id]
            if not in_scope(info):
                continue
            for origin in self.origins_of(function_id, effect):
                chain = self.chain(function_id, origin)
                if not any(in_scope(functions[callee])
                           for callee, _line in chain):
                    yield info, origin, chain

    def route(self, info: FunctionInfo, origin: EffectOrigin,
              chain: list[Step]) -> str:
        """``caller -> helper -> source (direct site path:line)``, the
        chain as a finding message spells it."""
        functions = self.graph.functions
        hops = [info.qualname,
                *(functions[callee].qualname for callee, _line in chain),
                origin.source]
        holder = functions[origin.holder].module.display_path
        return f"{' -> '.join(hops)} (direct site {holder}:{origin.line})"

    # -- direct seeding ------------------------------------------------

    def _seed_direct(self) -> None:
        for function_id, info in self.graph.functions.items():
            origins: dict[EffectOrigin, Step | None] = {}
            for node, effect, source in _direct_sites(
                    info, self.graph.calls.get(function_id, ())):
                origins[EffectOrigin(
                    effect=effect, holder=function_id, source=source,
                    line=node.lineno, col=node.col_offset)] = None
            for origin in _unordered_return_origins(function_id, info):
                origins[origin] = None
            self._origins[function_id] = origins
            self._return_sites[function_id] = _return_call_ids(info)
            self._mutated[function_id] = _direct_mutations(info)

    # -- fixpoint ------------------------------------------------------

    def _fixpoint(self) -> None:
        pending = list(self.graph.functions)
        in_queue = set(pending)
        while pending:
            callee_id = pending.pop()
            in_queue.discard(callee_id)
            changed_callers = self._push_to_callers(callee_id)
            for caller_id in changed_callers:
                if caller_id not in in_queue:
                    pending.append(caller_id)
                    in_queue.add(caller_id)

    def _push_to_callers(self, callee_id: FunctionId) -> set[FunctionId]:
        changed: set[FunctionId] = set()
        callee_origins = self._origins.get(callee_id, {})
        callee_mutated = self._mutated.get(callee_id, {})
        callee_info = self.graph.functions.get(callee_id)
        for site in self.graph.callers.get(callee_id, ()):
            caller_id = site.caller
            caller_origins = self._origins[caller_id]
            step: Step = (callee_id, site.line)
            for origin in callee_origins:
                if origin in caller_origins:
                    continue
                if origin.effect in TRANSITIVE_EFFECTS:
                    caller_origins[origin] = step
                    changed.add(caller_id)
                elif origin.effect == UNORDERED_RETURN and \
                        id(site.node) in self._return_sites[caller_id]:
                    caller_origins[origin] = step
                    changed.add(caller_id)
            if callee_mutated and callee_info is not None:
                if self._propagate_mutation(site, callee_info,
                                            callee_mutated):
                    changed.add(caller_id)
        return changed

    def _propagate_mutation(self, site: CallSite, callee: FunctionInfo,
                            callee_mutated: dict[str, int]) -> bool:
        """Caller params handed straight to a mutating callee param."""
        caller_info = self.graph.functions.get(site.caller)
        if caller_info is None:
            return False
        caller_params = _param_names(caller_info)
        caller_mutated = self._mutated[site.caller]
        changed = False
        for position, arg in enumerate(site.node.args):
            if not isinstance(arg, ast.Name) or arg.id not in caller_params:
                continue
            target = param_name_for_arg(callee, position,
                                        method_call=_is_method_call(site,
                                                                    callee))
            if target in callee_mutated and arg.id not in caller_mutated:
                caller_mutated[arg.id] = site.line
                changed = True
        for keyword in site.node.keywords:
            arg = keyword.value
            if keyword.arg is None or not isinstance(arg, ast.Name) or \
                    arg.id not in caller_params:
                continue
            if keyword.arg in callee_mutated and \
                    arg.id not in caller_mutated:
                caller_mutated[arg.id] = site.line
                changed = True
        return changed


def analyze_effects(modules: Iterable[Module],
                    graph: CallGraph | None = None) -> EffectAnalysis:
    """Build the call graph (unless given) and run the effect fixpoint."""
    if graph is None:
        graph = build_call_graph(modules)
    return EffectAnalysis(graph)


def call_mutates_argument(analysis: EffectAnalysis, site: CallSite,
                          position: int | None,
                          keyword: str | None = None) -> FunctionId | None:
    """Whether any callee of ``site`` may mutate the given argument.

    Returns the first mutating callee's id (for the finding message),
    or ``None``.  Positional arguments are mapped past ``self`` for
    method-style dispatch.
    """
    for callee_id in site.callees:
        callee = analysis.graph.functions.get(callee_id)
        if callee is None:
            continue
        mutated = analysis.mutated_params(callee_id)
        if keyword is not None:
            if keyword in mutated:
                return callee_id
            continue
        if position is None:
            continue
        target = param_name_for_arg(
            callee, position, method_call=_is_method_call(site, callee))
        if target is not None and target in mutated:
            return callee_id
    return None


def param_name_for_arg(callee: FunctionInfo, position: int,
                       method_call: bool) -> str | None:
    """The callee parameter a positional argument binds to."""
    params = _param_names_ordered(callee)
    if method_call and params and params[0] in {"self", "cls"}:
        params = params[1:]
    if 0 <= position < len(params):
        return params[position]
    return None


# -- direct-effect extraction ------------------------------------------------


def _direct_sites(info: FunctionInfo, sites: Iterable[CallSite]
                  ) -> Iterator[tuple[ast.expr, str, str]]:
    """``(node, effect, source)`` for every direct site in the body."""
    aliases = info.module.aliases
    for node in info.own_nodes:
        if isinstance(node, (ast.Name, ast.Attribute)) and \
                isinstance(node.ctx, ast.Load):
            qualified = qualified_name(node, aliases)
            if qualified is not None:
                effect = _read_effect(qualified)
                if effect is not None:
                    yield node, effect, qualified
    for site in sites:
        external = site.external
        call = site.node
        if external is None:
            if isinstance(call.func, ast.Name) and call.func.id == "open" \
                    and not site.callees:
                yield call, BLOCKING_IO, "open"
        elif external == "random.Random":
            if not call.args and not call.keywords:
                yield call, AMBIENT_RANDOM, "random.Random()"
        elif external in BLOCKING_CALLS or \
                external.startswith(BLOCKING_PREFIXES):
            yield call, BLOCKING_IO, external


def _read_effect(qualified: str) -> str | None:
    """The effect of reading a qualified name, called or not."""
    if qualified in WALL_CLOCK_READS:
        return WALL_CLOCK
    if qualified in CPU_TIME_READS:
        return CPU_TIME
    if qualified in GLOBAL_RANDOM_CALLS or qualified in OS_ENTROPY_CALLS \
            or qualified.startswith(_SECRETS_PREFIX):
        return AMBIENT_RANDOM
    return None


def _param_names(info: FunctionInfo) -> set[str]:
    return set(_param_names_ordered(info))


def _param_names_ordered(info: FunctionInfo) -> list[str]:
    args = getattr(info.node, "args", None)  # None for ``<module>``
    if args is None:
        return []
    return [arg.arg for arg in [*args.posonlyargs, *args.args]]


def _direct_mutations(info: FunctionInfo) -> dict[str, int]:
    """Parameters the function body assigns attributes/items on."""
    args = getattr(info.node, "args", None)
    if args is None:
        return {}
    params = {arg.arg for arg in [*args.posonlyargs, *args.args,
                                  *args.kwonlyargs]}
    params.discard("self")
    params.discard("cls")
    mutated: dict[str, int] = {}

    def note(name: str, line: int) -> None:
        if name in params and name not in mutated:
            mutated[name] = line

    for node in info.own_nodes:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            base = _attribute_or_item_base(target)
            if base is not None:
                note(base, node.lineno)
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in MUTATOR_METHODS and \
                isinstance(node.func.value, ast.Name):
            note(node.func.value.id, node.lineno)
    return mutated


def _attribute_or_item_base(target: ast.expr) -> str | None:
    """``p`` for assignment targets ``p.attr = ...`` / ``p[k] = ...``."""
    if isinstance(target, (ast.Attribute, ast.Subscript)) and \
            isinstance(target.value, ast.Name):
        return target.value.id
    return None


# -- unordered-return detection ----------------------------------------------


def _unordered_return_origins(function_id: FunctionId,
                              info: FunctionInfo) -> list[EffectOrigin]:
    tainted = _set_tainted_names(info)
    origins: list[EffectOrigin] = []
    for node in info.own_nodes:
        if isinstance(node, ast.Return) and node.value is not None and \
                expression_is_set_ordered(node.value, tainted):
            origins.append(EffectOrigin(
                effect=UNORDERED_RETURN, holder=function_id,
                source="set-ordered return value", line=node.lineno,
                col=node.col_offset))
    return origins


def _set_tainted_names(info: FunctionInfo) -> set[str]:
    """Local names whose value order derives from set iteration."""
    tainted: set[str] = set()
    for _ in range(2):  # one re-pass resolves name-to-name chains
        for node in info.own_nodes:
            if isinstance(node, ast.Assign) and \
                    expression_is_set_ordered(node.value, tainted):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tainted.add(target.id)
            elif isinstance(node, ast.For) and \
                    statically_a_set(node.iter):
                # ``for x in {..}: acc.append(...)`` — the accumulator
                # inherits the set's iteration order.
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Call) and \
                            isinstance(inner.func, ast.Attribute) and \
                            inner.func.attr in {"append", "add",
                                                "extend"} and \
                            isinstance(inner.func.value, ast.Name):
                        tainted.add(inner.func.value.id)
    return tainted


def expression_is_set_ordered(node: ast.AST, tainted: set[str]) -> bool:
    """Whether an expression's order derives from an unordered set.

    ``sorted(...)`` launders the taint — imposing a total order is
    exactly the sanctioned fix.
    """
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "sorted":
                return False
            if func.id in {"list", "tuple"} and node.args:
                return expression_is_set_ordered(node.args[0], tainted)
        return False
    if statically_a_set(node):
        return True
    if isinstance(node, ast.Name):
        return node.id in tainted
    if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
        return any(expression_is_set_ordered(gen.iter, tainted)
                   for gen in node.generators)
    if isinstance(node, (ast.Tuple, ast.List)):
        return any(expression_is_set_ordered(item, tainted)
                   for item in node.elts)
    return False


def _return_call_ids(info: FunctionInfo) -> set[int]:
    """``id()`` of call nodes whose result escapes through ``return``.

    Covers ``return g(...)`` (unless wrapped in ``sorted(...)``) and
    the two-step ``x = g(...)`` ... ``return x`` form.
    """
    returned_names: set[str] = set()
    return_exprs: list[ast.expr] = []
    for node in info.own_nodes:
        if isinstance(node, ast.Return) and node.value is not None:
            return_exprs.append(node.value)
            if isinstance(node.value, ast.Name):
                returned_names.add(node.value.id)

    ids: set[int] = set()

    def collect(node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "sorted":
                return  # sorted(...) re-imposes a total order
            ids.add(id(node))
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda)):
                collect(child)

    for expr in return_exprs:
        collect(expr)
    for node in info.own_nodes:
        if isinstance(node, ast.Assign) and \
                isinstance(node.value, ast.Call) and \
                any(isinstance(t, ast.Name) and t.id in returned_names
                    for t in node.targets):
            collect(node.value)
    return ids


# -- small shared helpers ----------------------------------------------------


def _is_method_call(site: CallSite, callee: FunctionInfo) -> bool:
    """Whether the site dispatches as a bound method (``self`` consumed)."""
    return callee.class_name is not None and \
        site.resolution in {"self", "typed", "name"}
