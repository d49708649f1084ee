#!/usr/bin/env python
"""Simulation-safety static analyzer CLI.

Runs the :mod:`repro.analysis` rule set (the file-local SIM004-SIM006,
the cross-file PROTO rules, and the call-graph DET001/DET002, SHARD001
and SIM003) over the source tree and reports violations::

    python scripts/check.py                     # whole tree, human report
    python scripts/check.py --json              # JSON report on stdout
    python scripts/check.py --output report.json  # human + JSON artifact
    python scripts/check.py --sarif report.sarif  # SARIF 2.1.0 artifact
    python scripts/check.py --partial src/repro/net/stack.py  # changed files
    python scripts/check.py --list-rules

Exit status: 0 clean, 1 findings or suppression budget exceeded,
2 usage error.  ``# repro: allow[RULE] -- reason`` comments suppress a
rule for one file (or, placed inside a function body, for that
function only); every allowance is counted against
``--max-suppressions`` (default pinned below) so suppressions are
visible, budgeted debt.

Passing an explicit file list is a *partial* run: the call-graph and
cross-file rules see only those modules.  A direct clock read or
entropy draw in a listed file is still a finding (a call chain of
length zero), but chains through unlisted files and the cross-file
PROTO checks are not, so a clean partial run is not the authoritative
verdict — CI's full-tree run is.  ``--partial`` acknowledges that
explicitly (pre-commit uses it); without the flag a file-list run
still works but prints the same warning.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import all_rules, analyze_paths, analyze_tree  # noqa: E402
from repro.analysis.sarif import to_sarif  # noqa: E402

#: The committed suppression budget.  The tree currently needs zero
#: allowances; raising this number is a reviewed change, exactly like
#: editing a test expectation.
MAX_SUPPRESSIONS = 0

#: What the full-tree run covers by default.
DEFAULT_TARGET = REPO_ROOT / "src" / "repro"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="check.py",
        description="simulation-safety static analysis (SIM/PROTO/DET/"
                    "SHARD rules)")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files to analyze (default: all of src/repro; "
                             "cross-file rules need the full-tree run)")
    parser.add_argument("--json", action="store_true",
                        help="emit the JSON report on stdout instead of the "
                             "human one")
    parser.add_argument("--output", type=Path, default=None, metavar="FILE",
                        help="also write the JSON report to FILE (CI "
                             "artifact)")
    parser.add_argument("--sarif", type=Path, default=None, metavar="FILE",
                        help="also write a SARIF 2.1.0 report to FILE "
                             "(code-scanning upload)")
    parser.add_argument("--partial", action="store_true",
                        help="acknowledge a changed-file run: call-graph "
                             "and cross-file rules see only the listed "
                             "files, so chains through other files wait "
                             "for the full-tree run")
    parser.add_argument("--max-suppressions", type=int,
                        default=MAX_SUPPRESSIONS, metavar="N",
                        help="fail when more than N # repro: allow[...] "
                             "comments are in force (default %(default)s)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rule set and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}: {rule.summary}")
        return 0

    if args.paths:
        files = []
        for path in args.paths:
            if path.is_dir():
                files.extend(sorted(p for p in path.rglob("*.py")
                                    if "__pycache__" not in p.parts))
            elif path.suffix == ".py":
                files.append(path)
        report = analyze_paths(files, root=REPO_ROOT)
    else:
        if args.partial:
            parser.error("--partial needs an explicit file list; the "
                         "default full-tree run is never partial")
        report = analyze_tree(DEFAULT_TARGET)
        report.root = str(DEFAULT_TARGET)

    over_budget = len(report.suppressions) > args.max_suppressions

    if args.output is not None:
        args.output.write_text(json.dumps(report.to_json(), indent=2) + "\n",
                               encoding="utf-8")
    if args.sarif is not None:
        args.sarif.write_text(json.dumps(to_sarif(report), indent=2) + "\n",
                              encoding="utf-8")
    if report.partial:
        print("warning: partial run over an explicit file list; "
              "call-graph and cross-file rules are not authoritative — "
              "rely on the full-tree run for the final verdict",
              file=sys.stderr)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render_human())
        if over_budget:
            print(f"suppression budget exceeded: {len(report.suppressions)} "
                  f"in force, {args.max_suppressions} allowed")

    return 0 if report.ok and not over_budget else 1


if __name__ == "__main__":
    sys.exit(main())
