"""Simulation-safety static analysis.

The reproduction's headline artefacts — Table 8 timings, byte-identical
parallel sweeps, replayable MSC traces — rest on invariants the language
cannot express: no wall-clock reads on the simulated path, every random
draw through a named :meth:`~repro.simenv.rng.RandomStreams.stream`,
no blocking calls inside simenv process coroutines, no iteration-order
nondeterminism feeding the event queue or the wire, and a protocol
table that agrees with its server handlers and client encoders.

This package makes those rules mechanical.  :mod:`repro.analysis.core`
is a small AST rule framework (one parse per file; file, project and
context rules); :mod:`repro.analysis.callgraph` indexes every function,
method and module body once and resolves the call edges between them;
:mod:`repro.analysis.effects` propagates each body's clock, entropy,
blocking and ordering effects to a fixpoint, and its tables are the
one definition of what counts as a clock or an entropy source;
:mod:`repro.analysis.rules` holds the project rules;
:mod:`repro.analysis.runner` walks a source tree, applies the rules,
honours file- or function-scoped ``# repro: allow[RULE]``
suppressions, and renders human or JSON reports.
``scripts/check.py`` is the CLI; CI blocks on it.
"""

from repro.analysis.core import (
    ContextRule,
    Finding,
    FileRule,
    Module,
    ProjectContext,
    ProjectRule,
    Suppression,
    all_rules,
    parse_module,
    register,
    rule_codes,
)
from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.effects import EffectAnalysis, analyze_effects
from repro.analysis.runner import AnalysisReport, analyze_paths, analyze_tree
from repro.analysis import rules as _rules  # noqa: F401  (registers the rule set)

__all__ = [
    "AnalysisReport",
    "CallGraph",
    "ContextRule",
    "EffectAnalysis",
    "FileRule",
    "Finding",
    "Module",
    "ProjectContext",
    "ProjectRule",
    "Suppression",
    "all_rules",
    "analyze_effects",
    "analyze_paths",
    "analyze_tree",
    "build_call_graph",
    "parse_module",
    "register",
    "rule_codes",
]
