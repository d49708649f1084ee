"""The traced pass: layer attribution from outside the program.

Three observers, all stdlib, none of which edits a file of the program:

* :class:`LayerProfile` runs ``cProfile`` and buckets self time
  (``tottime``) by the ``repro`` package the function's code lives in.
  A C function (builtin, ``_pickle``, numpy) has no package, so its time
  is charged to the layer of each caller, split by pstats ``callers``.
* :class:`GcTimer` times collections with a ``gc.callbacks`` start/stop
  pair.  cProfile charges a pause to whichever function was running
  when it struck; the timer notes that function's layer so the pause is
  moved out of the layer and into ``gc``.
* :class:`Spans` records spans from the benchmark's own code: phases of a
  round, every op, every Table 8 trial, and the shard phases that
  :func:`shard_phase_spans` wraps at run time and restores afterwards.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import repro
from repro.community.connections import PeerConnectionPool
from repro.shard import ShardSim

#: Layers, named after the ``repro`` packages the workloads reach.
LAYERS = ("simenv", "mobility", "radio", "net", "peerhood", "community",
          "msc", "eval", "sns", "shard")

_REPRO_DIR = os.path.dirname(repro.__file__) + os.sep

#: Per-layer call counts: metric -> (file under src/repro, function).
#: cProfile counts every resumption of a generator as a call.
CALLS = {
    "simenv.queue_push.calls": ("simenv/events.py", "push"),
    "simenv.spawn.calls": ("simenv/environment.py", "spawn"),
    "mobility.model_step.calls": ("mobility/models.py", "step"),
    "mobility.nodes_within.calls": ("mobility/world.py", "nodes_within"),
    "radio.neighbors.calls": ("radio/medium.py", "neighbors"),
    "radio.reachable.calls": ("radio/medium.py", "reachable"),
    "radio.sweep_pairs.calls": ("radio/sweep.py", "sweep_pairs"),
    "net.send.calls": ("net/connection.py", "send"),
    "net.wire_copy.calls": ("net/messages.py", "wire_copy"),
    "net.connect.calls": ("net/stack.py", "connect"),
    "peerhood.discover.calls": ("peerhood/plugins/", "discover"),
    "peerhood.connect.calls": ("peerhood/daemon.py", "connect"),
    "community.handle_request.calls": ("community/server.py",
                                       "handle_request"),
    "msc.message.calls": ("msc/trace.py", "message"),
}


def layer_of(filename: str) -> str:
    """The layer a source file belongs to; ``other`` outside them."""
    if filename.startswith(_REPRO_DIR):
        package = filename[len(_REPRO_DIR):].split(os.sep, 1)[0]
        if package in LAYERS:
            return package
    return "other"


class GcTimer:
    """Times every collection, and which layer it interrupted."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = 0
        self.by_layer: dict[str, float] = defaultdict(float)
        self._started = 0.0
        self._layer = "other"

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            try:
                frame = sys._getframe(1)
            except ValueError:  # collection with no Python frame running
                frame = None
            self._layer = (layer_of(frame.f_code.co_filename)
                           if frame is not None else "other")
            self._started = time.perf_counter()
        else:
            pause = time.perf_counter() - self._started
            self.pause_s += pause
            self.collections += 1
            self.by_layer[self._layer] += pause

    def __enter__(self) -> GcTimer:
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


class LayerProfile:
    """cProfile over one traced phase, bucketed by layer."""

    def __init__(self) -> None:
        self._profile = cProfile.Profile()

    def __enter__(self) -> LayerProfile:
        self._profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self._profile.disable()
        self._profile.create_stats()

    def self_seconds(self, gc_timer: GcTimer) -> dict[str, float]:
        """Self time per layer (plus ``other``), GC pauses moved out."""
        totals = dict.fromkeys((*LAYERS, "other"), 0.0)
        for (filename, _, _), (_, _, tottime, _, callers) in \
                self._profile.stats.items():
            if filename == "~":
                for caller, caller_stats in callers.items():
                    totals[layer_of(caller[0])] += caller_stats[2]
            else:
                totals[layer_of(filename)] += tottime
        for layer, pause in gc_timer.by_layer.items():
            totals[layer] -= pause
        return totals

    def _repro_functions(self):
        """(path under src/repro, name, pstats row) per profiled function."""
        for (filename, _, name), row in self._profile.stats.items():
            if filename.startswith(_REPRO_DIR):
                yield filename[len(_REPRO_DIR):].replace(os.sep, "/"), name, row

    def calls(self) -> dict[str, int]:
        """The :data:`CALLS` counts."""
        counts = dict.fromkeys(CALLS, 0)
        for relative, name, (_, ncalls, _, _, _) in self._repro_functions():
            for metric, (path, function) in CALLS.items():
                if name == function and relative.startswith(path):
                    counts[metric] += ncalls
        return counts

    def cumulative_seconds(self, path: str, function: str) -> float:
        """Inclusive time of one function (e.g. the shard pickle clone)."""
        return sum(row[3] for relative, name, row in self._repro_functions()
                   if relative == path and name == function)


class Spans:
    """In-memory spans of one workload, written as JSONL at the end."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.records: list[dict] = []
        self._open: list[dict] = []

    def _new(self, name: str, start_ns: int, attrs: dict) -> dict:
        span = {"id": len(self.records) + 1,
                "parent": self._open[-1]["id"] if self._open else None,
                "workload": self.workload, "name": name,
                "start_ns": start_ns, "end_ns": None, "attrs": attrs}
        self.records.append(span)
        return span

    def begin(self, name: str, **attrs) -> dict:
        """Open a span; it is the parent of spans recorded until its end."""
        span = self._new(name, time.perf_counter_ns(), attrs)
        self._open.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end_ns"] = time.perf_counter_ns()
        self._open.remove(span)

    def record(self, name: str, start_ns: int, end_ns: int, **attrs) -> None:
        """A finished leaf span under the open one."""
        self._new(name, start_ns, attrs)["end_ns"] = end_ns

    def seconds(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(span["end_ns"] - span["start_ns"]
                   for span in self.records if span["name"] == name) / 1e9

    def append_to(self, path: str) -> None:
        """Append every span to a JSONL file, one object per line."""
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.records:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


@contextmanager
def shard_phase_spans(spans: Spans):
    """Span every in-process ``ShardSim`` window phase; restore after."""
    originals = {name: getattr(ShardSim, name)
                 for name in ("run_window", "collect_exchange",
                              "apply_exchange")}

    def wrap(name, original):
        def timed(sim, *args, **kwargs):
            started = time.perf_counter_ns()
            try:
                return original(sim, *args, **kwargs)
            finally:
                spans.record(f"shard.{name}", started,
                             time.perf_counter_ns(), shard=sim.shard_id)
        return timed

    for name, original in originals.items():
        setattr(ShardSim, name, wrap(name, original))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(ShardSim, name, original)


@contextmanager
def pool_ensure_counter():
    """Count ``PeerConnectionPool.ensure`` invocations; restore after.

    cProfile cannot: it counts every resumption of the generator.
    """
    original = PeerConnectionPool.ensure
    counter = [0]

    def ensure(pool, device_id):
        counter[0] += 1
        return original(pool, device_id)

    PeerConnectionPool.ensure = ensure
    try:
        yield counter
    finally:
        PeerConnectionPool.ensure = original
