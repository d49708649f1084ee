"""Run one workload in this interpreter and print its result as JSON.

``bench/run.py`` starts one of these per workload, so every workload
gets a fresh interpreter with the interpreter's default GC settings::

    PYTHONPATH=src python bench/worker.py ps_mix --seed 0 --seconds 15 --trace 0

A timed run repeats rounds (set-up, then the timed phase) until the
next round would end past ``--seconds``, with at least
:data:`MIN_ROUNDS`.  Every round of a run uses the same inputs, so all
rounds must produce the same digest.  A speed probe before and after
each round scales its host times to a fixed machine speed.  A traced
run does one untraced round and then one traced round, and reports
per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from contextlib import ExitStack

from tracing import (LAYERS, GcTimer, LayerProfile, Spans, pool_ensure_counter,
                     shard_phase_spans)
from workloads import (BASE_SEED, PS_KINDS, WORKLOADS, Round,
                       check_sharded_against_reference, percentile)

MIN_ROUNDS = 3
#: Share of the slowest ops whose mean is ``op_host_tail_ms``, and the
#: fewest ops it averages.
TAIL_SHARE = 0.05
TAIL_MIN_OPS = 10
#: Iterations of the loop :func:`speed_probe` times.
PROBE_LOOPS = 300_000
#: What :func:`speed_probe` returns on the machine the baselines come
#: from when nothing else slows it: the fastest of 119 probes over 30 s.
#: Scaled host times are seconds on that machine at that speed.
REFERENCE_PROBE_S = 0.0127


def tail_mean(values: list[float]) -> float:
    """Mean of the slowest :data:`TAIL_SHARE` of ``values``, and of at
    least :data:`TAIL_MIN_OPS` of them (all, if there are fewer).

    Unlike a percentile it moves smoothly when a few more ops hit a GC
    pause or when one op kind makes up exactly the tail, as downloads
    are a tenth of the ``ps_*`` ops.
    """
    count = max(TAIL_MIN_OPS, math.ceil(TAIL_SHARE * len(values)))
    return statistics.fmean(sorted(values)[-count:])


def _gen2_collections() -> int:
    return gc.get_stats()[2]["collections"]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _round(name: str, seed: int, spans: Spans | None = None,
           **size) -> tuple[Round, int]:
    """One round after a full collection, with its gen-2 collections."""
    gc.collect()
    before = _gen2_collections()
    result = WORKLOADS[name](seed, spans, **size)
    return result, _gen2_collections() - before


def _summary(name: str, rounds: list[Round]) -> dict:
    """Correctness over all rounds: checks, and one digest for all."""
    first = rounds[0]
    failures = [line for item in rounds for line in item.failures]
    for index, item in enumerate(rounds[1:], start=1):
        if item.digest != first.digest or item.exact != first.exact:
            failures.append(f"round {index} output differs from round 0")
    return {
        "workload": name,
        "rounds": len(rounds),
        "attempted": sum(item.attempted for item in rounds),
        "failed": len(failures),
        "failures": failures[:20],
        "digest": first.digest,
        "exact": first.exact,
    }


def speed_probe() -> float:
    """Best of three timings of a fixed pure-Python loop, in seconds.

    It is the benchmark's own code, so no change to the program moves
    it.  It runs after a full collection and allocates no containers,
    so the heap a round leaves behind does not move it either.
    """
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i % 7
        best = min(best, time.perf_counter() - started)
    return best


def timed_result(name: str, seed: int, seconds: float, **size) -> dict:
    """End-to-end metrics of one workload from untraced rounds.

    Every host time of a round is multiplied by ``REFERENCE_PROBE_S``
    over the mean of the speed probes taken just before and just after
    it, which cancels how fast the machine happened to run then.
    """
    workload_seed = BASE_SEED[name] + seed
    rounds: list[Round] = []
    probes = [speed_probe()]
    began = time.perf_counter()
    while True:
        round_began = time.perf_counter()
        rounds.append(_round(name, workload_seed, **size)[0])
        gc.collect()
        probes.append(speed_probe())
        last = time.perf_counter() - round_began
        if (len(rounds) >= MIN_ROUNDS
                and time.perf_counter() - began + last > seconds):
            break
    result = _summary(name, rounds)
    # Before the reference check, whose single world is not the workload.
    peak_rss_mb = _peak_rss_mb()
    if name == "crowd_sharded":
        extra = check_sharded_against_reference(
            workload_seed, events=rounds[0].exact["events"], **size)
        result["failures"] += extra
        result["failed"] += len(extra)
    scales = [REFERENCE_PROBE_S / statistics.fmean(pair)
              for pair in zip(probes, probes[1:])]
    samples = {
        "setup_s": [item.setup_s for item in rounds],
        "wall_s": [item.wall_s for item in rounds],
        "critical_path_s": [item.cpu_s for item in rounds],
    }
    result["metrics"] = {
        key: statistics.median(value * scale
                               for value, scale in zip(values, scales))
        for key, values in samples.items()}
    ops = [ms * scale for item, scale in zip(rounds, scales)
           for ms in item.op_ms]
    result["metrics"].update({
        "peak_rss_mb": peak_rss_mb,
        "op_host_p50_ms": percentile(ops, 50),
        "op_host_tail_ms": tail_mean(ops),
    })
    # The unscaled figures, for reading a run on its own.
    result["raw"] = {key: statistics.median(values)
                     for key, values in samples.items()}
    result["samples"] = dict(samples, probe_s=probes, ops=len(ops))
    return result


def traced_result(name: str, seed: int, spans_path: str | None = None,
                  **size) -> dict:
    """Per-layer metrics: one untraced round, then one traced round."""
    workload_seed = BASE_SEED[name] + seed
    plain, gen2 = _round(name, workload_seed, **size)
    spans = Spans(name)
    gc.collect()
    with ExitStack() as stack:
        stack.enter_context(shard_phase_spans(spans))
        ensures = stack.enter_context(pool_ensure_counter())
        gc_timer = stack.enter_context(GcTimer())
        profile = stack.enter_context(LayerProfile())
        began = time.perf_counter()
        traced = WORKLOADS[name](workload_seed, spans, **size)
        traced_wall = time.perf_counter() - began
    result = _summary(name, [plain, traced])
    if spans_path:
        spans.append_to(spans_path)

    self_s = profile.self_seconds(gc_timer)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = self_s[layer] / traced_wall
    metrics["other.self_s"] = self_s["other"]
    metrics["gc.pause_s"] = gc_timer.pause_s
    metrics["gc.collections"] = gc_timer.collections
    metrics["gc.gen2_collections"] = gen2
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_ratio"] = traced_wall / (plain.setup_s
                                                     + plain.wall_s)
    metrics["trace.residual_ratio"] = (
        traced_wall - sum(self_s.values()) - gc_timer.pause_s) / traced_wall
    metrics.update(profile.calls())

    state = plain.state
    metrics["simenv.events"] = state["simenv.events"]
    metrics["simenv.events_per_s"] = state["simenv.events"] / plain.wall_s
    for key in ("net.retry.attempts", "net.retry.retries",
                "net.retry.timeouts", "net.retry.giveups",
                "net.faults.injected", "community.probes",
                "community.probe_match_ratio", "community.pool_evicted",
                "msc.records", "shard.imbalance_factor",
                "shard.tiles_migrated", "shard.migrations",
                "shard.ghost_peak", "shard.windows",
                "shard.critical_path_events_per_s"):
        metrics[key] = state.get(key, 0)
    # Worlds built inside run_peerhood_column keep their pools to
    # themselves, so table8_seeds reports no reuse ratio.
    opened = traced.state.get("community.pool_opened")
    metrics["community.pool_reuse_ratio"] = (
        1.0 - opened / ensures[0] if opened is not None and ensures[0]
        else 0.0)
    for kind in dict.fromkeys(PS_KINDS):
        latencies = [ms for ms, op_kind in zip(plain.op_ms, plain.op_kinds)
                     if op_kind == kind]
        metrics[f"op.{kind}.host_p50_ms"] = (statistics.median(latencies)
                                             if latencies else 0.0)
    exact = plain.exact
    metrics["community.op_sim_p50_s"] = exact.get("op_sim_p50_s", 0.0)
    metrics["community.op_sim_p95_s"] = exact.get("op_sim_p95_s", 0.0)
    metrics["community.group_coverage"] = exact.get("group_coverage", 0.0)
    for key in ("workflow_p50_sim_s", "workflow_p95_sim_s",
                "workflow_paper_err"):
        metrics[f"eval.{key}"] = exact.get(key, 0.0)
    for phase in ("run_window", "collect_exchange", "apply_exchange"):
        metrics[f"shard.{phase}_s"] = spans.seconds(f"shard.{phase}")
    metrics["shard.pickle_s"] = profile.cumulative_seconds(
        "shard/runner.py", "_clone")
    result["metrics"] = metrics
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", help="append the traced run's spans "
                                        "to this JSONL file")
    args = parser.parse_args(argv)
    if args.trace:
        result = traced_result(args.workload, args.seed, args.spans)
    else:
        result = timed_result(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
