"""The benchmark's five workloads, driven through ``repro``'s public API.

Each workload is one function that builds its world from a seed, runs
one *round* of work and returns a :class:`Round`: host timings, the
per-operation host latencies, the deterministic outputs (for exact
metrics and the digest) and the result of every output check.  The
size arguments exist so tests can run a tiny round; the benchmark
itself always uses the defaults.

Why each workload exists is recorded in ``BENCHMARK.json`` and README.md.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

from repro.community import protocol
from repro.community.filetransfer import TransferProgress
from repro.eval.metrics import discovery_stats, summarize_testbed_faults
from repro.eval.table8 import PAPER_TABLE8, run_peerhood_column
from repro.eval.testbed import Testbed
from repro.eval.workloads import (crowd_bounds, populate_crowd,
                                  populate_neighborhood)
from repro.net.faults import FaultConfig
from repro.net.retry import RetryPolicy, is_degraded
from repro.shard import (DeviceState, ShardedRunner, ShardSim,
                         ShardWorkload, build_crowd, crowd_workload,
                         reference_run)
from repro.simenv import events as simenv_events

if TYPE_CHECKING:
    from tracing import Spans

#: Base seed of each workload; ``--seed S`` is added to it (table8_seeds
#: derives one seed per trial instead, see :func:`table8_seeds`).
BASE_SEED = {"crowd_discovery": 11, "ps_mix": 23, "ps_chaos": 23,
             "table8_seeds": 0, "crowd_sharded": 13}

#: Op kinds of the closed loop, cycled in this order: 7 reads, 2 writes
#: that grow the profiles later reads fetch, 1 bulk transfer.
PS_KINDS = ("members", "interests", "profile", "comment", "message",
            "trusted", "shared", "profile", "members", "download")
NEIGHBOURHOOD = 16
SHARED_FILE = "mix.bin"
SHARED_BYTES = 64 * 1024
WARMUP_S = 30.0

#: The chaos test suite's policy (``tests/chaos``) with 10 attempts in
#: place of 4, so that no op exhausts its retries, and a 2 s attempt
#: timeout in place of 15 s, so that a timed-out attempt costs little
#: simulated time (README.md, "Why ps_chaos ...").
CHAOS_POLICY = RetryPolicy(max_attempts=10, base_delay_s=0.5,
                           max_delay_s=4.0, attempt_timeout_s=2.0,
                           budget_s=120.0)
#: Link faults only: connect failures, drops, corruption, and latency
#: spikes that stretch a 5 ms WLAN frame to 5 s, past the attempt
#: timeout.  Device flaps are left out because they reach three known
#: unhandled exceptions (README.md, "Known failure sites").
CHAOS_FAULTS = replace(FaultConfig.chaos(0.05), flap_rate=0.0,
                       latency_spike_factor=1000.0)

#: The paper's PeerHood Community Table 8 total (11 + 0 + 15 + 19 s).
PAPER_TOTAL_S = PAPER_TABLE8["PeerHood Community"].total_s
#: How far the measured mean workflow may sit from the paper's total.
PAPER_TOLERANCE = 0.10


@dataclass
class Round:
    """One round of a workload: what was timed, produced and checked."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    #: CPU seconds on the critical path of the timed phase.
    cpu_s: float = 0.0
    #: Host latency of every op of the timed phase, in ms.
    op_ms: list[float] = field(default_factory=list)
    #: Op kind per entry of ``op_ms`` (closed-loop workloads only).
    op_kinds: list[str] = field(default_factory=list)
    #: Deterministic outputs: equal for equal seeds on any host.
    exact: dict[str, float] = field(default_factory=dict)
    #: Counters read from public state after the round (per-layer, "T").
    state: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    attempted: int = 0
    #: One line per op or output that failed its check.
    failures: list[str] = field(default_factory=list)


def percentile(values: list[float], pct: int) -> float:
    """Inclusive percentile (``pct`` in 1..99); the value itself for one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def sha256(items) -> str:
    """Digest of the ``repr`` of each item, in order."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode())
        digest.update(b"\n")
    return digest.hexdigest()


@contextmanager
def phase(spans: Spans | None, name: str, **attrs):
    """A span around one phase of a round, when tracing."""
    if spans is None:
        yield
        return
    span = spans.begin(name, **attrs)
    try:
        yield
    finally:
        spans.end(span)


class _Clock:
    """Host wall and CPU time of one timed phase."""

    def __enter__(self) -> _Clock:
        self.events = simenv_events.events_popped_global
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._wall
        self.cpu_s = time.process_time() - self._cpu
        self.events = simenv_events.events_popped_global - self.events


# -- crowd_discovery ----------------------------------------------------------


def crowd_discovery(seed: int, spans: Spans | None = None, *,
                    members: int = 1024, sim_seconds: int = 45) -> Round:
    """A BT+WLAN crowd with a quarter walking, run tick by tick.

    The op is one simulated second (one scan interval).
    """
    result = Round()
    started = time.perf_counter()
    with phase(spans, "setup"):
        bed = Testbed(seed=seed, bounds=crowd_bounds(members),
                      scan_interval=1.0)
        crowd = populate_crowd(bed, members, shared_interest="music")
    result.setup_s = time.perf_counter() - started

    with phase(spans, "timed"), _Clock() as clock:
        for _ in range(sim_seconds):
            op_start = time.perf_counter()
            bed.run(1.0)
            result.op_ms.append((time.perf_counter() - op_start) * 1e3)
    result.wall_s, result.cpu_s = clock.wall_s, clock.cpu_s
    result.attempted = sim_seconds

    groups = [tuple(sorted(member.app.group_members("music")))
              for member in crowd]
    covered = sum(1 for group in groups if len(group) > 1)
    stats = [discovery_stats(member.app.engine) for member in crowd]
    probes = sum(stat.probes for stat in stats)
    matched = sum(stat.matched_probes for stat in stats)
    result.exact = {"events": clock.events,
                    "group_coverage": covered / members,
                    "probes": probes}
    result.state = _testbed_state(bed, clock)
    result.state["community.probes"] = probes
    result.state["community.probe_match_ratio"] = matched / max(1, probes)
    result.digest = sha256([clock.events, probes, matched, *groups])
    if covered < 0.95 * members:
        result.failures.append(f"only {covered}/{members} members found "
                               "a music group")
    bed.stop()
    return result


# -- ps_mix / ps_chaos ----------------------------------------------------------


def _ps_op(app, kind: str, target: str, index: int):
    if kind == "members":
        return app.view_all_members()
    if kind == "interests":
        return app.view_interest_list()
    if kind == "profile":
        return app.view_member_profile(target)
    if kind == "comment":
        return app.comment_profile(target, f"comment {index}")
    if kind == "message":
        return app.send_message(target, f"subject {index}", "body")
    if kind == "trusted":
        return app.view_trusted_friends(target)
    if kind == "shared":
        return app.view_shared_content(target)
    return app.download_file(target, SHARED_FILE)


def _ps_check(kind: str, value, caller: str, target: str, ids: list[str],
              interests: set[str]) -> bool:
    """Whether ``value`` is the op's full normal result."""
    if is_degraded(value):
        return False
    if kind == "members":
        return {member["member_id"] for member in value} == set(ids) - {caller}
    if kind == "interests":
        return set(value) == interests
    if kind == "profile":
        return isinstance(value, dict) and value["member_id"] == target
    if kind == "comment":
        return value is True
    if kind == "message":
        return value == protocol.SUCCESSFULLY_WRITTEN
    if kind == "trusted":
        return value is not None and set(value) == set(ids) - {target}
    if kind == "shared":
        return value == [{"name": SHARED_FILE, "size": SHARED_BYTES}]
    return (isinstance(value, TransferProgress) and value.complete
            and value.received_bytes == SHARED_BYTES)


def _outcome(value) -> str:
    """Deterministic, compact record of one op result for the digest."""
    if isinstance(value, TransferProgress):
        return (f"{value.received_bytes}/{value.total_bytes} "
                f"c{value.chunks} r{value.retries} {value.finished_at!r}")
    return repr(value)


def _closed_loop(seed: int, spans: Spans | None, ops: int,
                 chaos: bool) -> Round:
    result = Round()
    started = time.perf_counter()
    with phase(spans, "setup"):
        bed = Testbed(seed=seed, technologies=("wlan",))
        members = populate_neighborhood(bed, NEIGHBOURHOOD,
                                        shared_interest="music")
        ids = [member.member_id for member in members]
        for member in members:
            if chaos:
                member.app.client.retry_policy = CHAOS_POLICY
                member.app.downloader.retry_policy = CHAOS_POLICY
            member.app.share_file(SHARED_FILE, SHARED_BYTES)
            for other in ids:
                if other != member.member_id:
                    member.app.accept_trusted(other)
        with phase(spans, "warmup"):
            bed.run(WARMUP_S)
        if chaos:
            bed.enable_faults(CHAOS_FAULTS)
    result.setup_s = time.perf_counter() - started

    issued = []
    with phase(spans, "timed"), _Clock() as clock:
        for index in range(ops):
            caller = index % NEIGHBOURHOOD
            target = (7 * index + 3) % NEIGHBOURHOOD
            if target == caller:
                target = (target + 1) % NEIGHBOURHOOD
            kind = PS_KINDS[index % len(PS_KINDS)]
            sim_start = bed.env.now
            op_start = time.perf_counter_ns()
            try:
                value = bed.execute(_ps_op(members[caller].app, kind,
                                           ids[target], index))
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                value = exc
            op_end = time.perf_counter_ns()
            result.op_ms.append((op_end - op_start) / 1e6)
            result.op_kinds.append(kind)
            issued.append((kind, ids[caller], ids[target], value,
                           sim_start, bed.env.now))
            if spans is not None:
                spans.record(f"op.{kind}", op_start, op_end,
                             caller=ids[caller], target=ids[target],
                             sim_start=sim_start, sim_end=bed.env.now)
    result.wall_s, result.cpu_s = clock.wall_s, clock.cpu_s
    result.attempted = ops

    interests = {interest for member in members
                 for interest in member.app.profile.interests}
    sim_waits = []
    records = [clock.events]
    for kind, caller, target, value, sim_start, sim_end in issued:
        sim_waits.append(sim_end - sim_start)
        records.append((kind, caller, target, sim_start, sim_end,
                        _outcome(value)))
        if isinstance(value, Exception):
            result.failures.append(f"{kind} {caller}->{target} raised "
                                   f"{value!r}")
        elif not _ps_check(kind, value, caller, target, ids, interests):
            result.failures.append(f"{kind} {caller}->{target} returned "
                                   f"{_outcome(value)[:120]}")
    result.exact = {"events": clock.events,
                    "op_sim_p50_s": percentile(sim_waits, 50),
                    "op_sim_p95_s": percentile(sim_waits, 95)}
    result.state = _testbed_state(bed, clock)
    records.append(sorted(result.state.items()))
    result.digest = sha256(records)
    bed.stop()
    return result


def ps_mix(seed: int, spans: Spans | None = None, *,
           ops: int = 2000) -> Round:
    """16 WLAN members in a closed loop of PS_* ops, one in flight."""
    return _closed_loop(seed, spans, ops, chaos=False)


def ps_chaos(seed: int, spans: Spans | None = None, *,
             ops: int = 1500) -> Round:
    """``ps_mix`` with the chaos retry policy and link faults on."""
    return _closed_loop(seed, spans, ops, chaos=True)


def _testbed_state(bed: Testbed, clock: _Clock) -> dict[str, float]:
    """Per-layer counters read from a testbed's public state."""
    summary = summarize_testbed_faults(bed)
    client, transfer = summary["client"], summary["transfer"]
    pools = [member.app.pool for member in bed.members.values()]
    faults = summary.get("faults", {}).get("total", 0)
    return {
        "simenv.events": clock.events,
        "net.retry.attempts": client["attempts"] + transfer["attempts"],
        "net.retry.retries": client["retries"] + transfer["retries"],
        "net.retry.timeouts": client["timeouts"] + transfer["timeouts"],
        "net.retry.giveups": client["giveups"] + transfer["giveups"],
        "net.faults.injected": faults,
        "community.pool_opened": sum(pool.opened_total for pool in pools),
        "community.pool_evicted": sum(pool.evicted_total for pool in pools),
        "msc.records": len(bed.recorder.events),
    }


# -- table8_seeds -------------------------------------------------------------


def _table8_trial(trial_seed: int, spans: Spans | None):
    """One ``run_peerhood_column`` trial: its result (or what it raised)
    and its host time in ms."""
    op_start = time.perf_counter_ns()
    try:
        times = run_peerhood_column(seed=trial_seed, trials=1)
    except Exception as exc:  # noqa: BLE001 - counted as a failed op
        times = exc
    op_end = time.perf_counter_ns()
    if spans is not None:
        spans.record("table8.trial", op_start, op_end, trial_seed=trial_seed)
    return times, (op_end - op_start) / 1e6


def table8_seeds(seed: int, spans: Spans | None = None, *,
                 trials: int = 800) -> Round:
    """The paper's room, one fresh world per trial.

    Trial ``i`` runs ``run_peerhood_column(seed=100000 * seed + i)``.
    Set-up is trial 0: the wait until the first Table 8 result is in.
    The timed phase is every later trial.
    """
    result = Round()
    started = time.perf_counter()
    with phase(spans, "setup"):
        outcomes = [_table8_trial(100000 * seed, spans)[0]]
    result.setup_s = time.perf_counter() - started

    with phase(spans, "timed"), _Clock() as clock:
        for index in range(1, trials):
            times, op_ms = _table8_trial(100000 * seed + index, spans)
            result.op_ms.append(op_ms)
            outcomes.append(times)
    result.wall_s, result.cpu_s = clock.wall_s, clock.cpu_s
    result.attempted = trials

    totals = []
    for index, times in enumerate(outcomes):
        if isinstance(times, Exception):
            result.failures.append(f"trial {index} raised {times!r}")
        elif not (times.search_s > 0 and times.join_s == 0
                  and times.member_list_s > 0 and times.profile_s > 0):
            result.failures.append(f"trial {index} returned {times!r}")
        else:
            totals.append(times.total_s)
    if totals:
        mean = statistics.fmean(totals)
        paper_err = abs(mean - PAPER_TOTAL_S) / PAPER_TOTAL_S
        result.exact = {"events": clock.events,
                        "workflow_p50_sim_s": percentile(totals, 50),
                        "workflow_p95_sim_s": percentile(totals, 95),
                        "workflow_paper_err": paper_err}
        if paper_err > PAPER_TOLERANCE:
            result.failures.append(
                f"mean workflow {mean:.2f} s is {paper_err:.1%} from the "
                f"paper's {PAPER_TOTAL_S:.0f} s")
    result.state = {"simenv.events": clock.events}
    result.digest = sha256([clock.events, *outcomes])
    return result


# -- crowd_sharded ------------------------------------------------------------


#: Hotspot centres of ``crowd_sharded``, as fractions of the world's
#: side: six venues in the lower half of the map.  The tile partition's
#: default map gives the lower half to shard 0, so every run starts out
#: unbalanced and the rebalancer moves tiles to shard 1.  The centres
#: are fixed rather than drawn from the seed, because where hotspots
#: fall sets how much work a run has (README.md, "crowd_sharded").
HOTSPOTS = ((0.15, 0.2), (0.3, 0.3), (0.45, 0.2), (0.6, 0.3), (0.75, 0.2),
            (0.9, 0.3))
#: Share of the crowd in the hotspots, and each hotspot's standard
#: deviation per axis as a share of the side.
HOT_SHARE = 0.5
HOT_SIGMA = 0.04


@dataclass(frozen=True)
class PrebuiltWorkload(ShardWorkload):
    """A shard workload whose device list is built before the run."""

    devices: tuple[DeviceState, ...] = ()

    def build_devices(self) -> list[DeviceState]:
        return list(self.devices)


def sharded_workload(seed: int, devices: int,
                     sim_seconds: float) -> PrebuiltWorkload:
    """The hotspot crowd both the sharded run and its reference check use.

    ``build_crowd`` lays out a constant-density crowd from the seed.
    Then a seeded sample of :data:`HOT_SHARE` of it moves to Gaussian
    draws around the :data:`HOTSPOTS`, in turn.
    """
    bounds = crowd_workload(devices).bounds
    crowd = build_crowd(count=devices, bounds=bounds, seed=seed)
    rng = random.Random(seed)
    sigma = HOT_SIGMA * bounds.width
    for index, device in enumerate(
            rng.sample(crowd, round(HOT_SHARE * devices))):
        x, y = HOTSPOTS[index % len(HOTSPOTS)]
        x = bounds.min_x + x * bounds.width + rng.gauss(0.0, sigma)
        y = bounds.min_y + y * bounds.height + rng.gauss(0.0, sigma)
        # One metre inside the bounds, as the program's crowd builders.
        device.x = min(bounds.max_x - 1.0, max(bounds.min_x + 1.0, x))
        device.y = min(bounds.max_y - 1.0, max(bounds.min_y + 1.0, y))
    return PrebuiltWorkload(count=devices, seed=seed,
                            sim_seconds=sim_seconds, bounds=bounds,
                            scan_interval=2.0, window=1.0,
                            devices=tuple(crowd))


@contextmanager
def _window_starts():
    """When each sync window starts: shard 0 entering ``run_window``.

    Inline shards run a window back to back and then exchange, so the
    gap between two starts is the host time of one whole window.
    """
    starts: list[int] = []
    original = ShardSim.run_window

    def run_window(sim, until):
        if sim.shard_id == 0:
            starts.append(time.perf_counter_ns())
        return original(sim, until)

    ShardSim.run_window = run_window
    try:
        yield starts
    finally:
        ShardSim.run_window = original


def crowd_sharded(seed: int, spans: Spans | None = None, *,
                  devices: int = 4000, sim_seconds: float = 32.0) -> Round:
    """A hotspot crowd on two shards, tile partition, rebalancing.

    Set-up builds the crowd and the runner.  The op is one scan
    interval: two 1 s windows, one of which holds every device's scan.
    The shards run inline, one after the other in this process: with
    two worker processes on a 2-CPU host, wall and critical-path times
    spread 25% from run to run, inline 6% (README.md, "crowd_sharded").
    """
    result = Round()
    started = time.perf_counter()
    with phase(spans, "setup"):
        workload = sharded_workload(seed, devices, sim_seconds)
        runner = ShardedRunner(workload, 2, processes=False,
                               partition="tile", rebalance=True,
                               collect_logs=False)
    result.setup_s = time.perf_counter() - started

    with phase(spans, "timed"), _Clock() as clock, \
            _window_starts() as starts:
        run = runner.run()
        starts.append(time.perf_counter_ns())
    result.wall_s = clock.wall_s
    result.cpu_s = run.critical_path_seconds
    per_op = round(workload.scan_interval / workload.window)
    scans = starts[::per_op]
    result.op_ms = [(end - start) / 1e6
                    for start, end in zip(scans, scans[1:])]
    result.attempted = len(result.op_ms)

    windows = math.ceil(sim_seconds / workload.window)
    if run.device_count != devices or run.windows != windows:
        result.failures.append(f"ran {run.device_count} devices over "
                               f"{run.windows} windows")
    if run.events != sum(run.per_shard_events.values()) or run.events <= 0:
        result.failures.append(f"event total {run.events} does not match "
                               f"the shards' {run.per_shard_events}")
    if run.tiles_migrated == 0:
        result.failures.append("the rebalancer moved no tile")
    result.exact = {"events": run.events, "migrations": run.migrations,
                    "imbalance_factor": run.imbalance_factor,
                    "tiles_migrated": run.tiles_migrated}
    result.state = {
        "simenv.events": clock.events,
        "shard.imbalance_factor": run.imbalance_factor,
        "shard.tiles_migrated": run.tiles_migrated,
        "shard.migrations": run.migrations,
        "shard.ghost_peak": run.ghost_peak,
        "shard.windows": run.windows,
        "shard.critical_path_events_per_s":
            run.events / max(run.critical_path_seconds, 1e-9),
    }
    result.digest = sha256([run.events, run.migrations, run.windows,
                            run.ghost_peak, run.tiles_migrated,
                            run.rebalances, run.imbalance_factor,
                            sorted(run.per_shard_events.items())])
    return result


def check_sharded_against_reference(seed: int, *, devices: int = 4000,
                                    sim_seconds: float = 32.0,
                                    events: int) -> list[str]:
    """The lockstep single-world oracle must count the same events."""
    oracle = reference_run(sharded_workload(seed, devices, sim_seconds),
                           collect_logs=False)
    if oracle.events != events:
        return [f"sharded run fired {events} events, the single-world "
                f"reference {oracle.events}"]
    return []


WORKLOADS: dict[str, Callable[..., Round]] = {
    "crowd_discovery": crowd_discovery,
    "ps_mix": ps_mix,
    "ps_chaos": ps_chaos,
    "table8_seeds": table8_seeds,
    "crowd_sharded": crowd_sharded,
}
