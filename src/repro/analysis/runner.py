"""Walk a source tree, apply the rule set, render reports.

The runner parses each file once, runs every applicable
:class:`~repro.analysis.core.FileRule` over it, then runs the
:class:`~repro.analysis.core.ProjectRule` and
:class:`~repro.analysis.core.ContextRule` sets over the whole module
list (context rules share one call-graph/effect fixpoint via
:class:`~repro.analysis.core.ProjectContext`).  ``# repro:
allow[RULE]`` comments move matching findings into the *suppressed*
list — still visible, still counted per suppression — and an allowance
that silences nothing becomes a ``SUP001`` finding of its own, so
suppressions can only ever describe real, current debt.

Reports from :func:`analyze_paths` carry ``partial=True``: an explicit
file list (pre-commit's changed-file mode) denies the project rules
their full view, so such a run must never be mistaken for the
authoritative full-tree verdict that :func:`analyze_tree` stamps
``partial=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Sequence

from repro.analysis.core import (
    ContextRule,
    FileRule,
    Finding,
    Module,
    ProjectContext,
    ProjectRule,
    Suppression,
    all_rules,
    parse_module,
)

#: Report schema version stamped into ``--json`` output.  v2 adds
#: ``partial``, per-suppression ``scope`` and ``absorbed`` counts.
SCHEMA = "repro.analysis/v2"


@dataclass
class AnalysisReport:
    """Everything one analysis run learned."""

    root: str
    files: list[str] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    suppressions: list[Suppression] = field(default_factory=list)
    #: How many findings each suppression absorbed this run.
    absorbed: dict[Suppression, int] = field(default_factory=dict)
    #: True when the run saw an explicit file list rather than the
    #: whole tree — project rules were (partially or fully) skipped.
    partial: bool = False

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for finding in self.findings:
            tally[finding.rule] = tally.get(finding.rule, 0) + 1
        return dict(sorted(tally.items()))

    def to_json(self) -> dict[str, object]:
        return {
            "schema": SCHEMA,
            "root": self.root,
            "files_scanned": len(self.files),
            "ok": self.ok,
            "partial": self.partial,
            "counts": self.counts(),
            "findings": [finding.to_json() for finding in self.findings],
            "suppressed": [finding.to_json() for finding in self.suppressed],
            "suppressions": [
                {**s.to_json(), "absorbed": self.absorbed.get(s, 0)}
                for s in self.suppressions
            ],
        }

    def render_human(self) -> str:
        """The multi-line human report ``scripts/check.py`` prints."""
        lines: list[str] = []
        for finding in sorted(self.findings):
            lines.append(finding.render())
        if self.suppressed:
            lines.append("")
            lines.append(f"suppressed ({len(self.suppressed)}):")
            for finding in sorted(self.suppressed):
                lines.append(f"  {finding.render()}")
        if self.suppressions:
            lines.append("")
            lines.append(f"suppressions in force ({len(self.suppressions)}):")
            for suppression in sorted(self.suppressions):
                count = self.absorbed.get(suppression, 0)
                lines.append(f"  {suppression.render()} — absorbed "
                             f"{count} finding(s)")
        lines.append("")
        status = "clean" if self.ok else f"{len(self.findings)} finding(s)"
        partial = " [partial run: project rules not authoritative]" \
            if self.partial else ""
        lines.append(f"{len(self.files)} file(s) scanned: {status}{partial}")
        return "\n".join(lines)


def analyze_tree(root: Path) -> AnalysisReport:
    """Analyze every ``*.py`` under ``root`` (sorted, deterministic)."""
    paths = sorted(path for path in root.rglob("*.py")
                   if "__pycache__" not in path.parts)
    report = analyze_paths(paths, root=root)
    report.partial = False  # the full tree: project rules saw everything
    return report


def analyze_paths(paths: Sequence[Path],
                  root: Path | None = None) -> AnalysisReport:
    """Analyze an explicit file list (pre-commit's changed-file mode).

    Project rules see only the given modules; cross-file checks like
    PROTO001 therefore need the full-tree run to be authoritative —
    the report says so via ``partial=True``.
    """
    report = AnalysisReport(root=str(root) if root is not None else "",
                            partial=True)
    modules: list[Module] = []
    for path in paths:
        display = path.as_posix()
        if root is not None:
            try:
                display = path.resolve().relative_to(
                    Path(root).resolve()).as_posix()
            except ValueError:
                pass
        try:
            module = parse_module(path, root=root)
        except SyntaxError as exc:
            report.files.append(display)
            offending = (exc.text or "").strip()
            detail = f"{exc.msg}: {offending!r}" if offending else exc.msg
            report.findings.append(Finding(
                path=display, line=exc.lineno or 1,
                col=(exc.offset or 1) - 1, rule="PARSE001",
                message=f"could not parse: {detail}"))
            continue
        modules.append(module)
        report.files.append(module.display_path)

    rules = all_rules()
    raw: list[Finding] = []
    for module in modules:
        for rule in rules:
            if isinstance(rule, FileRule) and rule.applies_to(module):
                raw.extend(rule.check(module))
    context = ProjectContext(modules)
    for rule in rules:
        if isinstance(rule, ProjectRule):
            raw.extend(rule.check_project(modules))
        elif isinstance(rule, ContextRule):
            raw.extend(rule.check_context(context))

    _apply_suppressions(report, modules, raw)
    report.findings.sort()
    report.suppressed.sort()
    report.suppressions.sort()
    return report


def _apply_suppressions(report: AnalysisReport, modules: Sequence[Module],
                        raw: list[Finding]) -> None:
    by_key: dict[tuple[str, str], list[Suppression]] = {}
    for module in modules:
        report.suppressions.extend(module.suppressions)
        for suppression in module.suppressions:
            by_key.setdefault((module.display_path, suppression.rule),
                              []).append(suppression)
            report.absorbed.setdefault(suppression, 0)

    for finding in raw:
        match = _matching_suppression(
            by_key.get((finding.path, finding.rule), ()), finding.line)
        if match is not None:
            report.absorbed[match] = report.absorbed.get(match, 0) + 1
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)

    for suppression, count in report.absorbed.items():
        if count == 0:
            scope = "" if suppression.scope == "file" \
                else f" (scoped to {suppression.scope})"
            report.findings.append(Finding(
                path=suppression.path, line=suppression.line, col=0,
                rule="SUP001",
                message=f"allow[{suppression.rule}]{scope} suppresses "
                        f"nothing; delete the stale comment"))


def _matching_suppression(candidates: Sequence[Suppression],
                          line: int) -> Suppression | None:
    """The innermost suppression covering ``line``.

    Function-scoped allowances (smallest span) win over file-scoped
    ones, so the absorbed counts attribute findings to the most
    specific waiver in force.
    """
    best: Suppression | None = None
    for suppression in candidates:
        if not suppression.covers(line):
            continue
        if best is None:
            best = suppression
        elif suppression.span is not None and (
                best.span is None or
                (suppression.span[1] - suppression.span[0]) <
                (best.span[1] - best.span[0])):
            best = suppression
    return best
