"""Tests of the benchmark itself (not part of the tier-1 suite).

    python -m pytest bench/tests -q

Every workload runs at a tiny size, passed through its size arguments.
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import worker
from workloads import BASE_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

TINY = {
    "crowd_discovery": {"members": 64, "sim_seconds": 5},
    "ps_mix": {"ops": 30},
    "ps_chaos": {"ops": 30},
    "table8_seeds": {"trials": 8},
    "crowd_sharded": {"devices": 300, "sim_seconds": 4.0},
}


def test_spec_lists_the_five_workloads_with_legal_names() -> None:
    assert [item["name"] for item in SPEC["workloads"]] == list(WORKLOADS)
    names = [metric["name"] for metric in
             SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in names and len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_timed_run_passes_checks_and_reports_every_metric(name) -> None:
    result = worker.timed_result(name, 0, 0.0, **TINY[name])
    assert result["failed"] == 0, result["failures"]
    assert result["rounds"] == worker.MIN_ROUNDS
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]] > 0, metric["name"]


def test_host_times_are_scaled_by_the_probes_around_each_round() -> None:
    result = worker.timed_result("ps_mix", 0, 0.0, **TINY["ps_mix"])
    samples = result["samples"]
    probes = samples["probe_s"]
    assert len(probes) == result["rounds"] + 1
    scaled = [wall * worker.REFERENCE_PROBE_S / ((before + after) / 2)
              for wall, before, after in zip(samples["wall_s"], probes,
                                             probes[1:])]
    assert result["metrics"]["wall_s"] == pytest.approx(
        statistics.median(scaled))
    assert result["raw"]["wall_s"] == statistics.median(samples["wall_s"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path) -> None:
    spans = tmp_path / "spans.jsonl"
    result = worker.traced_result(name, 0, str(spans), **TINY[name])
    assert result["failed"] == 0, result["failures"]
    metrics = result["metrics"]
    assert {metric["name"] for metric in SPEC["per_layer"]} <= set(metrics)
    assert abs(metrics["trace.residual_ratio"]) < 0.10
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert {"setup", "timed"} <= {record["name"] for record in records}
    assert all(record["workload"] == name for record in records)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_outputs_other_seed_other_digest(name) -> None:
    run = WORKLOADS[name]
    first = run(BASE_SEED[name], **TINY[name])
    again = run(BASE_SEED[name], **TINY[name])
    other = run(BASE_SEED[name] + 1, **TINY[name])
    assert (first.exact, first.digest) == (again.exact, again.digest)
    assert other.digest != first.digest


def test_chaos_injects_faults_and_retries_through_timeouts() -> None:
    result = WORKLOADS["ps_chaos"](BASE_SEED["ps_chaos"], ops=100)
    assert result.failures == []
    assert result.state["net.faults.injected"] > 0
    assert result.state["net.retry.retries"] > 0
    assert result.state["net.retry.timeouts"] > 0


def test_sharded_hotspots_make_the_rebalancer_move_tiles() -> None:
    result = WORKLOADS["crowd_sharded"](BASE_SEED["crowd_sharded"],
                                        **TINY["crowd_sharded"])
    assert result.failures == []
    assert result.state["shard.tiles_migrated"] > 0


def test_run_fails_without_the_program_source(tmp_path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "ps_mix", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- compare.py ---------------------------------------------------------------

COMPARE_SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.05}]}


def _results(values, *, digest="d", events=100, failed=0) -> list[dict]:
    return [{"metrics": {"wall_s": value}, "digest": digest,
             "exact": {"events": events}, "attempted": 100, "failed": failed}
            for value in values]


def _verdict(parent, change) -> tuple:
    rows, _, _ = compare.compare({"w": _results(parent)},
                                 {"w": _results(change)}, COMPARE_SPEC)
    return rows[0].verdict, rows[0].wins, rows[0].losses, rows[0].ties


PARENT = [1.00, 1.01, 1.02, 0.99, 1.00, 1.01, 0.98, 1.00, 1.02, 0.99]


def test_nine_of_ten_wins_and_a_gap_beyond_the_iqr_is_improved() -> None:
    change = [value * 0.9 for value in PARENT]
    change[3] = 1.5
    assert _verdict(PARENT, change) == ("improved", 9, 1, 0)


def test_eight_of_ten_wins_is_not_improved() -> None:
    change = [value * 0.9 for value in PARENT]
    change[3] = change[4] = 1.5
    verdict, wins, _, _ = _verdict(PARENT, change)
    assert wins == 8 and verdict != "improved"


def test_ties_count_for_neither_side() -> None:
    change = list(PARENT)
    change[0] = 0.5
    assert _verdict(PARENT, change) == ("unchanged", 1, 0, 9)


def test_spread_wider_than_the_bound_is_unresolved() -> None:
    noisy = [0.8, 1.2, 0.9, 1.1, 1.0, 0.85, 1.15, 0.95, 1.05, 1.0]
    assert _verdict(noisy, list(reversed(noisy)))[0] == "unresolved"


def test_worse_by_more_than_the_bound_is_regressed() -> None:
    assert _verdict(PARENT, [value * 1.1 for value in PARENT])[0] == \
        "regressed"


def test_fewer_than_ten_pairs_is_never_improved() -> None:
    parent = PARENT[:3]
    verdict, wins, _, _ = _verdict(parent, [value * 0.5 for value in parent])
    assert wins == 3 and verdict != "improved"


def _write(directory: Path, results: list[dict]) -> Path:
    """One single-workload run file per result, as run.py writes them."""
    directory.mkdir()
    for index, result in enumerate(results):
        (directory / f"run{index:02d}.json").write_text(
            json.dumps({"workloads": {"w": result}}))
    return directory


@pytest.fixture
def compare_spec(tmp_path, monkeypatch) -> None:
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps(COMPARE_SPEC))
    monkeypatch.setattr(compare, "SPEC_PATH", spec)


def test_more_failed_ops_and_a_new_digest_fail_the_comparison(
        tmp_path, capsys, compare_spec) -> None:
    parent = _write(tmp_path / "parent", _results(PARENT))
    change = _write(tmp_path / "change",
                    _results(PARENT, digest="e", events=101, failed=1))
    assert compare.main(["--parent", str(parent),
                         "--change", str(change)]) == 1
    out = capsys.readouterr().out
    assert "failed-op share rose" in out
    assert "output digest changed" in out and "simenv.events" in out


def test_runs_that_do_not_pair_up_fail_the_comparison(
        tmp_path, capsys, compare_spec) -> None:
    parent = _write(tmp_path / "parent", _results(PARENT))
    change = _write(tmp_path / "change", _results(PARENT[:9]))
    assert compare.main(["--parent", str(parent),
                         "--change", str(change)]) == 1
    assert "10 parent runs but 9 change runs" in capsys.readouterr().out


def test_claim_not_met_fails_and_a_met_claim_passes(tmp_path,
                                                    compare_spec) -> None:
    parent = _write(tmp_path / "parent", _results(PARENT))
    same = _write(tmp_path / "same", _results(PARENT))
    faster = _write(tmp_path / "faster",
                    _results([value * 0.8 for value in PARENT]))
    common = ["--parent", str(parent), "--claim", "wall_s", "w"]
    assert compare.main(common + ["--change", str(same)]) == 1
    assert compare.main(common + ["--change", str(faster)]) == 0


def test_a_claim_on_three_pairs_is_not_met(tmp_path, compare_spec) -> None:
    parent = _write(tmp_path / "parent", _results(PARENT[:3]))
    faster = _write(tmp_path / "faster",
                    _results([value * 0.5 for value in PARENT[:3]]))
    assert compare.main(["--parent", str(parent), "--change", str(faster),
                         "--claim", "wall_s", "w"]) == 1
