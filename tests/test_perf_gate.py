"""``scripts/perf_gate.py`` takes its base tree from ``git archive``.

The gate compares this tree with a base commit's committed files; it
extracts them into a temporary directory and writes nothing under
``.git``.
"""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PERF_GATE = REPO_ROOT / "scripts" / "perf_gate.py"


def _perf_gate():
    spec = importlib.util.spec_from_file_location("perf_gate", PERF_GATE)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checkout_extracts_the_committed_files(tmp_path):
    tree = tmp_path / "base"
    _perf_gate().checkout("HEAD", tree)
    committed = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "show", "HEAD:src/repro/__init__.py"],
        capture_output=True, check=True).stdout
    assert (tree / "src" / "repro" / "__init__.py").read_bytes() == committed
    assert not (tree / ".git").exists()
