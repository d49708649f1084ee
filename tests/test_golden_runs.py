"""Golden runs: what the model computes today equals the committed values.

Shardcheck compares a sharded run with the one-shard run of the same
code, and the lockstep oracles compare two paths of the same code, so a
change that moves both sides alike passes them all: one ulp in a walker
step, say.  These runs compare today's results with values committed
beside them.  Each pins the walkers' final positions as well as what
discovery made of them, because a one-ulp drift seldom flips a
neighbour set.

A change that moves a value on purpose updates it here and names the
model change in CHANGES.md.  Every value is the same on CPython 3.10,
3.11 and 3.12; if one interpreter disagrees, find and remove the
version dependence rather than pinning values per version.

The module needs only the standard library and ``repro``, so the same
figures can be printed under any interpreter::

    PYTHONPATH=src:. python -c "from tests.test_golden_runs import *; \\
        print(crowd_figures()); print(clustered_figures()); \\
        print(table8_figures()); print(conformance_figures()); \\
        print(chaos_figures())"
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from contextlib import contextmanager

from dataclasses import replace

from repro.community.exchanges import CONFORMANCE_EXCHANGES
from repro.eval.metrics import discovery_stats, summarize_testbed_faults
from repro.eval.table8 import run_peerhood_column
from repro.eval.testbed import Testbed
from repro.eval.workloads import (crowd_bounds, populate_crowd,
                                  populate_neighborhood)
from repro.net.faults import FaultConfig
from repro.net.retry import RetryPolicy
from repro.shard import SCENARIOS, ShardedRunner, interaction_digests
from repro.shard.engine import ShardSim

from tests.conformance.drivers import run_sim_exchange


def _sha256(items) -> str:
    """Digest of the ``repr`` of each item, in order."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def crowd_figures(members: int = 64, seconds: float = 30.0) -> dict:
    """A full-stack crowd: a quarter of it on :class:`RandomWalk`."""
    bed = Testbed(seed=11, bounds=crowd_bounds(members), scan_interval=1.0)
    crowd = populate_crowd(bed, members, shared_interest="music")
    bed.run(seconds)
    groups = [tuple(sorted(member.app.group_members("music")))
              for member in crowd]
    figures = {
        "events": bed.env.events_processed,
        "probes": sum(discovery_stats(member.app.engine).probes
                      for member in crowd),
        "groups": _sha256(groups),
        "positions": _sha256((node.node_id, node.position.x, node.position.y)
                             for node in bed.world),
    }
    bed.stop()
    return figures


@contextmanager
def _final_positions() -> Iterator[list[tuple[str, float, float]]]:
    """Record every shard's owned devices where the run leaves them."""
    positions: list[tuple[str, float, float]] = []
    stop = ShardSim.stop

    def recording_stop(sim: ShardSim) -> None:
        for device_id in sim.owned:
            position = sim.world.node(device_id).position
            positions.append((device_id, position.x, position.y))
        stop(sim)

    ShardSim.stop = recording_stop
    try:
        yield positions
    finally:
        ShardSim.stop = stop


def clustered_figures() -> dict:
    """``crowd_clustered_n256`` on four inline shards, tile + rebalance."""
    runner = ShardedRunner(SCENARIOS["crowd_clustered_n256"], 4,
                           processes=False, partition="tile",
                           rebalance=True)
    with _final_positions() as positions:
        result = runner.run()
    assert result.logs is not None
    return {
        "events": result.events,
        "migrations": result.migrations,
        "ghost_peak": result.ghost_peak,
        "rebalances": result.rebalances,
        "tiles_migrated": result.tiles_migrated,
        "logs": _sha256(sorted(interaction_digests(result.logs).items())),
        "positions": _sha256(sorted(positions)),
    }


def table8_figures() -> str:
    """The exact ``repr`` of the Table 8 PeerHood column's task times."""
    return repr(run_peerhood_column(seed=0, trials=3))


def conformance_figures() -> dict:
    """Every frame of the eight conformance exchanges on the sim backend."""
    frames = [(exchange.name, frame.direction, frame.data)
              for exchange in CONFORMANCE_EXCHANGES
              for frame in run_sim_exchange(exchange).frames]
    return {"exchanges": len(CONFORMANCE_EXCHANGES), "frames": len(frames),
            "sha256": _sha256(frames)}


#: The chaos loop's ops, cycled: reads, a write, a message, a transfer.
_CHAOS_OPS = ("members", "profile", "interests", "comment", "message",
              "download")


def _chaos_op(app, kind: str, target: str, index: int):
    if kind == "members":
        return app.view_all_members()
    if kind == "profile":
        return app.view_member_profile(target)
    if kind == "interests":
        return app.view_interest_list()
    if kind == "comment":
        return app.comment_profile(target, f"comment {index}")
    if kind == "message":
        return app.send_message(target, f"subject {index}", "body")
    return app.download_file(target, "chaos.bin")


def chaos_figures(members: int = 5, ops: int = 48) -> dict:
    """A closed loop of PS_* ops among WLAN members under link faults.

    Faults are drops, connect failures, corruption and latency spikes
    past the attempt timeout; flaps are left out.  Each op's result is
    pinned with the simulated time it ended at, so a retry dropped or
    added anywhere moves the digest even where the op still succeeds.
    """
    policy = RetryPolicy(max_attempts=4, base_delay_s=0.5, max_delay_s=4.0,
                         attempt_timeout_s=2.0, budget_s=120.0)
    bed = Testbed(seed=23, technologies=("wlan",))
    crowd = populate_neighborhood(bed, members, shared_interest="music")
    ids = [member.member_id for member in crowd]
    for member in crowd:
        member.app.client.retry_policy = policy
        member.app.downloader.retry_policy = policy
        member.app.share_file("chaos.bin", 48 * 1024)
        for other in ids:
            if other != member.member_id:
                member.app.accept_trusted(other)
    bed.run(30.0)
    bed.enable_faults(replace(FaultConfig.chaos(0.15), flap_rate=0.0,
                              latency_spike_factor=1000.0))
    results = []
    for index in range(ops):
        caller = index % members
        target = (3 * index + 2) % members
        if target == caller:
            target = (target + 1) % members
        kind = _CHAOS_OPS[index % len(_CHAOS_OPS)]
        value = bed.execute(_chaos_op(crowd[caller].app, kind, ids[target],
                                      index), timeout=600.0)
        results.append((kind, ids[caller], ids[target], bed.env.now,
                        repr(value)))
    summary = summarize_testbed_faults(bed)
    figures = {
        "events": bed.env.events_processed,
        "retries": summary["client"]["retries"]
        + summary["transfer"]["retries"],
        "timeouts": summary["client"]["timeouts"]
        + summary["transfer"]["timeouts"],
        "injected": summary["faults"],
        "results": _sha256(results),
    }
    bed.stop()
    return figures


def test_crowd_discovery_64_members():
    assert crowd_figures() == {
        "events": 2_583,
        "probes": 248,
        "groups": ("7d806e2e96354392d1156cb45a1e56c3"
                   "d16b58aa8faee51032d84f83491a7e0b"),
        "positions": ("c1efe39502c845a9cccc59e8de0386b1"
                      "55f0daca7e795b0a8dacaa14a762ddad"),
    }


def test_crowd_clustered_n256_tile_rebalance():
    assert clustered_figures() == {
        "events": 119_338,
        "migrations": 96,
        "ghost_peak": 106,
        "rebalances": 3,
        "tiles_migrated": 5,
        "logs": ("bb15acfca687d06d507a810a04d655dc"
                 "1671aa8aa50a068e5cfc70ea6d9fac6e"),
        "positions": ("daa907d4f5c22b02567aafc230b8ca85"
                      "e71629c86cbacd9edcc22808dc8097ac"),
    }


def test_table8_peerhood_column():
    assert table8_figures() == (
        "TaskTimes(search_s=10.536273729705817, join_s=0.0, "
        "member_list_s=14.21435320903349, profile_s=19.069016325290736)")


def test_conformance_sim_transcripts():
    assert conformance_figures() == {
        "exchanges": 8,
        "frames": 60,
        "sha256": ("f1ea2aec7b584fd15fc0b677fcb09e4a"
                   "78179583c40a6addf3e7d057e4cf8635"),
    }


def test_ps_chaos_loop():
    assert chaos_figures() == {
        "events": 1_710,
        "retries": 128,
        "timeouts": 35,
        "injected": {"connect_failures": 13, "drops": 72, "corruptions": 13,
                     "latency_spikes": 35, "flaps": 0, "total": 133,
                     "flapped_devices": {}},
        "results": ("ed757926e426a0d57a307be1865cc639"
                    "ed63aac726ed641301a6231b828c373c"),
    }
