"""Resolution-layer unit tests for the project call graph.

Each test writes a tiny project to ``tmp_path``, parses it with the
analyzer's own :func:`parse_module`, and asserts which edges
:func:`build_call_graph` draws — and, just as importantly, which calls
stay conservatively unresolved rather than being silently dropped.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import build_call_graph, parse_module


def build(tmp_path: Path, files: dict[str, str]):
    modules = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        modules.append(parse_module(path, root=tmp_path))
    return build_call_graph(modules)


def fid(graph, suffix: str) -> str:
    matches = [f for f in graph.functions if f.endswith(suffix)]
    assert len(matches) == 1, (suffix, sorted(graph.functions))
    return matches[0]


def callees_of(graph, caller: str) -> set[str]:
    out: set[str] = set()
    for site in graph.calls.get(caller, ()):
        out.update(site.callees)
    return out


def resolutions_of(graph, caller: str) -> set[str]:
    return {site.resolution for site in graph.calls.get(caller, ())
            if site.callees}


def test_local_function_resolution(tmp_path: Path) -> None:
    graph = build(tmp_path, {"mod.py": """
        def helper():
            return 1


        def top():
            return helper()
    """})
    assert callees_of(graph, fid(graph, "::top")) == {fid(graph, "::helper")}
    assert resolutions_of(graph, fid(graph, "::top")) == {"local"}


def test_constructor_resolves_to_init(tmp_path: Path) -> None:
    graph = build(tmp_path, {"mod.py": """
        class Engine:
            def __init__(self):
                self.n = 0


        def make():
            return Engine()
    """})
    assert callees_of(graph, fid(graph, "::make")) == \
        {fid(graph, "Engine.__init__")}


def test_self_method_resolution(tmp_path: Path) -> None:
    graph = build(tmp_path, {"mod.py": """
        class Engine:
            def step(self):
                self.helper()

            def helper(self):
                pass
    """})
    step = fid(graph, "Engine.step")
    assert callees_of(graph, step) == {fid(graph, "Engine.helper")}
    assert resolutions_of(graph, step) == {"self"}


def test_aliased_import_resolution(tmp_path: Path) -> None:
    graph = build(tmp_path, {
        "util/clock.py": """
            def now():
                return 1.0
        """,
        "app/main.py": """
            from util import clock as ck


            def run():
                return ck.now()
        """,
    })
    run = fid(graph, "main.py::run")
    assert callees_of(graph, run) == {fid(graph, "clock.py::now")}
    assert resolutions_of(graph, run) == {"import"}


def test_from_import_function_alias(tmp_path: Path) -> None:
    graph = build(tmp_path, {
        "util/clock.py": """
            def now():
                return 1.0
        """,
        "app/main.py": """
            from util.clock import now as tick


            def run():
                return tick()
        """,
    })
    assert callees_of(graph, fid(graph, "main.py::run")) == \
        {fid(graph, "clock.py::now")}


def test_annotated_parameter_resolves_typed(tmp_path: Path) -> None:
    graph = build(tmp_path, {"mod.py": """
        class Engine:
            def step(self):
                pass


        def drive(engine: Engine):
            engine.step()
    """})
    drive = fid(graph, "::drive")
    assert callees_of(graph, drive) == {fid(graph, "Engine.step")}
    assert resolutions_of(graph, drive) == {"typed"}


def test_name_fallback_over_approximates(tmp_path: Path) -> None:
    # An untyped receiver dispatches to *every* method of that name:
    # a spurious edge beats a silently missing one.
    graph = build(tmp_path, {"mod.py": """
        class A:
            def poll(self):
                pass


        class B:
            def poll(self):
                pass


        def pump(thing):
            thing.poll()
    """})
    pump = fid(graph, "::pump")
    assert callees_of(graph, pump) == \
        {fid(graph, "A.poll"), fid(graph, "B.poll")}
    assert resolutions_of(graph, pump) == {"name"}


def test_unresolvable_dynamic_call_stays_conservative(tmp_path: Path) -> None:
    graph = build(tmp_path, {"mod.py": """
        def pump(thing):
            thing.no_such_method()
    """})
    pump = fid(graph, "::pump")
    assert callees_of(graph, pump) == set()
    unresolved = [site for site in graph.unresolved if site.caller == pump]
    assert len(unresolved) == 1  # recorded, not dropped


def test_external_calls_keep_qualified_name(tmp_path: Path) -> None:
    graph = build(tmp_path, {"mod.py": """
        import time


        def stamp():
            return time.time()
    """})
    sites = graph.calls[fid(graph, "::stamp")]
    assert [site.external for site in sites] == ["time.time"]


def test_reverse_edges_mirror_forward_edges(tmp_path: Path) -> None:
    graph = build(tmp_path, {"mod.py": """
        def helper():
            return 1


        def top():
            return helper()
    """})
    helper = fid(graph, "::helper")
    assert [site.caller for site in graph.callers[helper]] == \
        [fid(graph, "::top")]


def test_every_def_and_each_module_body_is_an_entry(tmp_path: Path) -> None:
    graph = build(tmp_path, {"mod.py": """
        import time

        T0 = time.time()


        def outer():
            class Local:
                def method(self):
                    pass

            def closure():
                pass


        class Outer:
            class Inner:
                def method(self):
                    pass

            def method(self):
                pass
    """})
    assert [info.qualname for info in graph.functions.values()] == [
        "<module>", "outer", "outer.Local.method", "outer.closure",
        "Outer.Inner.method", "Outer.method"]
    # Import-time code belongs to the <module> entry.
    sites = graph.calls[fid(graph, "::<module>")]
    assert [site.external for site in sites] == ["time.time"]


def test_methods_at_any_depth_are_dispatch_targets(tmp_path: Path) -> None:
    # An untyped receiver may hold an instance of a nested class, so
    # name fallback reaches its methods too; a closure is never called
    # through a receiver.
    graph = build(tmp_path, {"mod.py": """
        class Outer:
            class Inner:
                def poll(self):
                    pass

            def poll(self):
                pass


        def factory():
            class Local:
                def poll(self):
                    pass

            def poll():
                pass

            return Local, poll


        def pump(thing):
            thing.poll()
    """})
    assert callees_of(graph, fid(graph, "::pump")) == {
        fid(graph, "::Outer.poll"), fid(graph, "::Outer.Inner.poll"),
        fid(graph, "::factory.Local.poll")}


def test_redefinitions_keep_both_bodies(tmp_path: Path) -> None:
    graph = build(tmp_path, {"mod.py": """
        class Node:
            @property
            def model(self):
                return self._model

            @model.setter
            def model(self, value):
                self._model = value
    """})
    assert sorted(graph.functions) == [
        "mod.py::<module>", "mod.py::Node.model", "mod.py::Node.model@8"]
