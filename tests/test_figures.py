"""The figure artefacts in docs/figures/ are what the model renders today.

``scripts/render_figures.py`` writes the MSCs of Figures 11-17, the
Figure 6 trace-log narrative and Table 8 at seed 0.  A change that moves
any of them on purpose regenerates the files with
``PYTHONPATH=src python scripts/render_figures.py`` and names the model
change in CHANGES.md.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FIGURES = REPO_ROOT / "docs" / "figures"


def test_rendered_figures_match_the_committed_files(tmp_path):
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "render_figures.py"),
         str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    committed = sorted(figure.name for figure in FIGURES.iterdir())
    assert len(committed) == 9
    assert sorted(figure.name for figure in tmp_path.iterdir()) == committed
    for name in committed:
        assert ((tmp_path / name).read_bytes()
                == (FIGURES / name).read_bytes()), name
