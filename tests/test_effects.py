"""Fixpoint unit tests for the per-function effect inference."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import analyze_effects, parse_module
from repro.analysis.effects import (
    AMBIENT_RANDOM,
    BLOCKING_IO,
    UNORDERED_RETURN,
    WALL_CLOCK,
)


def effects_for(tmp_path: Path, files: dict[str, str]):
    modules = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        modules.append(parse_module(path, root=tmp_path))
    analysis = analyze_effects(modules)
    return analysis


def fid(analysis, suffix: str) -> str:
    matches = [f for f in analysis.graph.functions if f.endswith(suffix)]
    assert len(matches) == 1, (suffix, sorted(analysis.graph.functions))
    return matches[0]


def test_direct_effects_are_seeded(tmp_path: Path) -> None:
    analysis = effects_for(tmp_path, {"mod.py": """
        import time
        import uuid


        def stamp():
            return time.time()


        def token():
            return uuid.uuid4()


        def wait():
            time.sleep(1)
    """})
    assert WALL_CLOCK in analysis.effects_of(fid(analysis, "::stamp"))
    assert AMBIENT_RANDOM in analysis.effects_of(fid(analysis, "::token"))
    assert BLOCKING_IO in analysis.effects_of(fid(analysis, "::wait"))


def test_effects_propagate_to_callers(tmp_path: Path) -> None:
    analysis = effects_for(tmp_path, {"mod.py": """
        import time


        def deep():
            return time.time()


        def middle():
            return deep()


        def top():
            return middle()
    """})
    top = fid(analysis, "::top")
    assert WALL_CLOCK in analysis.effects_of(top)
    origin = analysis.origins_of(top, WALL_CLOCK)[0]
    assert origin.source == "time.time"
    chain = analysis.chain(top, origin)
    hops = [callee for callee, _line in chain]
    assert hops == [fid(analysis, "::middle"), fid(analysis, "::deep")]


def test_fixpoint_converges_on_cyclic_graph(tmp_path: Path) -> None:
    # ping -> pong -> ping, with the clock read in the cycle: the
    # worklist must terminate and both members carry the effect.
    analysis = effects_for(tmp_path, {"mod.py": """
        import time


        def ping(n):
            if n:
                return pong(n - 1)
            return time.time()


        def pong(n):
            return ping(n)
    """})
    ping = fid(analysis, "::ping")
    pong = fid(analysis, "::pong")
    assert WALL_CLOCK in analysis.effects_of(ping)
    assert WALL_CLOCK in analysis.effects_of(pong)
    origin = analysis.origins_of(pong, WALL_CLOCK)[0]
    # Chain extraction must not loop forever on the cycle either.
    assert analysis.chain(pong, origin)


def test_unordered_return_needs_return_position(tmp_path: Path) -> None:
    analysis = effects_for(tmp_path, {"mod.py": """
        def _ids():
            return {1, 2, 3}


        def leak():
            return _ids()


        def two_step():
            out = _ids()
            return out


        def harmless():
            out = _ids()
            return len(out)


        def laundered():
            return sorted(_ids())
    """})
    assert UNORDERED_RETURN in analysis.effects_of(fid(analysis, "::_ids"))
    assert UNORDERED_RETURN in analysis.effects_of(fid(analysis, "::leak"))
    assert UNORDERED_RETURN in analysis.effects_of(fid(analysis, "::two_step"))
    # Calling an order-unstable helper is fine while the result never
    # escapes, and sorted(...) launders the taint entirely.
    assert UNORDERED_RETURN not in \
        analysis.effects_of(fid(analysis, "::harmless"))
    assert UNORDERED_RETURN not in \
        analysis.effects_of(fid(analysis, "::laundered"))


def test_parameter_mutation_propagates_through_wrappers(
        tmp_path: Path) -> None:
    analysis = effects_for(tmp_path, {"mod.py": """
        def poke(obj):
            obj.count = 1


        def wrapper(state):
            poke(state)


        def reader(state):
            return state.count
    """})
    assert "obj" in analysis.mutated_params(fid(analysis, "::poke"))
    assert "state" in analysis.mutated_params(fid(analysis, "::wrapper"))
    assert analysis.mutated_params(fid(analysis, "::reader")) == {}


def test_mutator_method_counts_as_parameter_mutation(tmp_path: Path) -> None:
    analysis = effects_for(tmp_path, {"mod.py": """
        def push(queue, item):
            queue.append(item)
    """})
    assert "queue" in analysis.mutated_params(fid(analysis, "::push"))
    assert "item" not in analysis.mutated_params(fid(analysis, "::push"))


def test_every_load_of_a_clock_is_a_direct_origin(tmp_path: Path) -> None:
    analysis = effects_for(tmp_path, {"mod.py": """
        import time


        def pair():
            return time.time() - time.time()


        def passes(env):
            env.schedule(time.perf_counter)


        def deferred(env):
            env.schedule(lambda: time.monotonic())
    """})
    pair = analysis.origins_of(fid(analysis, "::pair"), WALL_CLOCK)
    # Two reads on one line stay two origins.
    assert [(o.line, o.col) for o in pair] == [(6, 11), (6, 25)]
    # A reference handed on uncalled, and a lambda body, count too.
    assert WALL_CLOCK in analysis.effects_of(fid(analysis, "::passes"))
    assert WALL_CLOCK in analysis.effects_of(fid(analysis, "::deferred"))
