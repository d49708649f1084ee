"""The parallel runner must change wall-clock only, never results.

``parallel_map`` fans seed-deterministic simulations across spawn-mode
worker processes; the contract is that every simulation-derived field
(event counts, virtual times, bytes, group membership) is *identical*
to a serial run — parallelism may only affect how long the host takes.
These tests pin that contract at two layers: the primitive and the
sweep CLI's emitted JSON.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.eval.parallel import parallel_map
from repro.eval.sweeps import density_sweep, fragmentation_sweep

REPO_ROOT = Path(__file__).resolve().parent.parent
SWEEP_CLI = REPO_ROOT / "scripts" / "sweep.py"


def _square(task: int) -> int:
    return task * task


class TestParallelMap:
    def test_serial_path_used_for_single_job(self):
        assert parallel_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_results_keep_task_order_across_workers(self):
        tasks = list(range(12))
        assert parallel_map(_square, tasks, jobs=3) == \
            [task * task for task in tasks]

    def test_empty_task_list(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_worker_exception_propagates(self):
        with pytest.raises(ZeroDivisionError):
            parallel_map(_reciprocal, [1, 0], jobs=2)

    @pytest.mark.parametrize("jobs", [0, -1, -4])
    def test_job_counts_below_one_rejected(self, jobs):
        """A zero/negative job count is a caller bug (mistyped flag),
        not a request for serial — it must fail loudly."""
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            parallel_map(_square, [1, 2, 3], jobs=jobs)


def _reciprocal(task: int) -> float:
    return 1.0 / task


class TestCliValidation:
    """`--jobs` below 1 must die at argument parsing with a clear
    message."""

    def _run(self, script: str, *argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / script), *argv],
            capture_output=True, text=True, timeout=120)

    def test_sweep_rejects_zero_jobs(self):
        proc = self._run("sweep.py", "density", "--jobs", "0")
        assert proc.returncode == 2
        assert "--jobs must be >= 1" in proc.stderr


class TestSweepParallelDeterminism:
    def test_density_points_identical_at_any_job_count(self):
        serial = density_sweep((2, 4), 0, jobs=1)
        fanned = density_sweep((2, 4), 0, jobs=2)
        assert serial == fanned

    def test_fragmentation_points_identical_at_any_job_count(self):
        serial = fragmentation_sweep((2, 4), 6, 0, jobs=1)
        fanned = fragmentation_sweep((2, 4), 6, 0, jobs=2)
        assert serial == fanned

    def test_sweep_cli_output_is_byte_identical(self, tmp_path):
        """The whole-pipeline guarantee: ``--jobs 2`` emits the same
        bytes as serial, because no wall-clock field reaches the JSON."""
        outputs = {}
        for jobs in (1, 2):
            out = tmp_path / f"sweep_j{jobs}.json"
            proc = subprocess.run(
                [sys.executable, str(SWEEP_CLI), "all",
                 "--counts", "2,4", "--pool-sizes", "2,4",
                 "--members", "6", "--jobs", str(jobs),
                 "--output", str(out)],
                capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            outputs[jobs] = out.read_bytes()
        assert outputs[1] == outputs[2]
        report = json.loads(outputs[1])
        assert report["density"]["points"]
        assert report["fragmentation"]["points"]
