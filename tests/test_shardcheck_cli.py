"""``scripts/shardcheck.py`` and the sharded scenario registry it reads.

CI's ``sharded-equivalence`` job runs the script under the registry's
names; these tests run it the same way and check that every name the
workflow passes is one :data:`repro.shard.SCENARIOS` knows.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

from repro.shard import SCENARIOS

REPO_ROOT = Path(__file__).resolve().parent.parent
SHARDCHECK = REPO_ROOT / "scripts" / "shardcheck.py"
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"


def _shardcheck(tmp_path: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SHARDCHECK), *argv,
         "--artifacts", str(tmp_path / "divergence")],
        capture_output=True, text=True, timeout=300)


def test_crowd_n64_matches_the_single_shard_run(tmp_path):
    proc = _shardcheck(tmp_path, "--shards", "2", "--scenario", "crowd_n64")
    assert proc.returncode == 0, proc.stderr
    (counts,) = re.findall(r"events\s+(\d+) vs\s+(\d+)", proc.stdout)
    assert counts == ("1934", "1934")


def test_retired_discovery_name_is_rejected(tmp_path):
    proc = _shardcheck(tmp_path, "--scenario", "discovery_n64")
    assert proc.returncode == 2
    assert "invalid choice: 'discovery_n64'" in proc.stderr


def test_workflow_scenario_names_are_registered():
    workflow = WORKFLOW.read_text(encoding="utf-8")
    names = set(re.findall(r"--scenario\s+(\w+)", workflow))
    names |= set(re.findall(r"SCENARIOS\[\"(\w+)\"\]", workflow))
    assert names, "no scenario names found in the workflow"
    assert names <= set(SCENARIOS), names - set(SCENARIOS)
