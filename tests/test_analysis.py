"""Fixture-driven self-tests for the simulation-safety analyzer.

Every rule has at least one firing fixture and one passing fixture
under ``tests/analysis_fixtures/``; the live-tree test then pins the
analyzer's verdict on ``src/repro`` itself to *clean with zero
suppressions*, so a regression in either the code or the rules shows
up as a test failure, not just a CI lint failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, analyze_tree, rule_codes
from repro.analysis.runner import SCHEMA

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "analysis_fixtures"
SRC_TREE = REPO_ROOT / "src" / "repro"
CHECK_CLI = REPO_ROOT / "scripts" / "check.py"


def analyze_fixture(*relative: str):
    paths = [FIXTURES / part for part in relative]
    return analyze_paths(paths, root=FIXTURES)


def fired_codes(report) -> set[str]:
    return {finding.rule for finding in report.findings}


# -- one firing and one passing fixture per rule ----------------------------

RULE_FIXTURES = [
    ("DET001", "simenv/bad_sim001.py", "simenv/good_sim001.py"),
    ("DET001", "simenv/bad_sim002.py", "simenv/good_sim002.py"),
    ("SIM003", "simenv/bad_sim003.py", "simenv/good_sim003.py"),
    ("SIM004", "simenv/bad_sim004.py", "simenv/good_sim004.py"),
    ("SIM005", "sim005_bad/simenv/events.py", "sim005_ok/simenv/events.py"),
    ("SIM006", "simenv/bad_sim006.py", "simenv/good_sim006.py"),
]


@pytest.mark.parametrize("code,bad,good", RULE_FIXTURES)
def test_rule_fires_on_bad_fixture(code: str, bad: str, good: str) -> None:
    report = analyze_fixture(bad)
    assert code in fired_codes(report), \
        f"{code} should fire on {bad}: {report.findings}"


@pytest.mark.parametrize("code,bad,good", RULE_FIXTURES)
def test_rule_passes_on_good_fixture(code: str, bad: str, good: str) -> None:
    report = analyze_fixture(good)
    assert code not in fired_codes(report), \
        f"{code} must stay quiet on {good}: {report.findings}"


def test_sim001_fires_once_per_wall_clock_read() -> None:
    report = analyze_fixture("simenv/bad_sim001.py")
    det = [f for f in report.findings if f.rule == "DET001"]
    assert len(det) == 2  # time.perf_counter and datetime.now
    assert all(f.path == "simenv/bad_sim001.py" for f in det)
    assert all(f.line > 0 for f in det)


def test_sim001_scoped_to_sim_path_packages() -> None:
    report = analyze_fixture("eval/good_sim001_scope.py")
    assert "DET001" not in fired_codes(report)


def test_sim002_applies_everywhere() -> None:
    # A wall clock under eval/ is out of the clock scope and draws
    # nothing; eval/'s draws are pinned in DET001_SITES below.
    report = analyze_fixture("eval/good_sim001_scope.py")
    assert "DET001" not in fired_codes(report)
    report = analyze_fixture("simenv/bad_sim002.py")
    messages = [f.message for f in report.findings if f.rule == "DET001"]
    assert any("unseeded" in message for message in messages)
    assert any("process-global" in message for message in messages)


def test_sim003_only_flags_generator_bodies() -> None:
    report = analyze_fixture("simenv/good_sim003.py")
    assert "SIM003" not in fired_codes(report)
    report = analyze_fixture("simenv/bad_sim003.py")
    sim003 = [f for f in report.findings if f.rule == "SIM003"]
    # time.sleep, socket.create_connection, open()
    assert len(sim003) == 3


def test_sim003_follows_helpers_into_process_coroutines(
        tmp_path: Path) -> None:
    module = tmp_path / "simenv" / "proc.py"
    module.parent.mkdir()
    module.write_text("import time\n"
                      "\n"
                      "\n"
                      "def settle():\n"
                      "    time.sleep(0.1)\n"
                      "\n"
                      "\n"
                      "def proc(env):\n"
                      "    settle()\n"
                      "    yield env.timeout(1)\n")
    report = analyze_paths([module], root=tmp_path)
    sim003 = [f for f in report.findings if f.rule == "SIM003"]
    # settle() is no coroutine; the coroutine calling it is the finding.
    assert [(f.line, f.col) for f in sim003] == [(9, 0)]
    assert "proc -> settle -> time.sleep" in sim003[0].message


def test_sim005_fires_once_per_hot_loop_allocation() -> None:
    report = analyze_fixture("sim005_bad/simenv/events.py")
    sim005 = [f for f in report.findings if f.rule == "SIM005"]
    # json.dumps, dict(event.state), copy.deepcopy — but not the
    # module-level json.loads setup.
    assert len(sim005) == 3


def test_sim005_scoped_to_hot_loop_filenames() -> None:
    # The same serialization calls in a sim-path module that is *not*
    # on the hot loop (messages.py owns encoding) stay unflagged.
    report = analyze_fixture("sim005_ok/simenv/messages.py")
    assert "SIM005" not in fired_codes(report)


def test_sim006_fires_on_every_address_read() -> None:
    report = analyze_fixture("simenv/bad_sim006.py")
    sim006 = [f for f in report.findings if f.rule == "SIM006"]
    # id(half) in a sort key, builtins.id(token), and key=id.
    assert len(sim006) == 3


def test_sim006_is_scoped_to_the_sim_path(tmp_path: Path) -> None:
    harness = tmp_path / "eval" / "harness.py"
    harness.parent.mkdir()
    harness.write_text("def order(objects):\n"
                       "    return sorted(objects, key=id)\n")
    report = analyze_paths([harness], root=tmp_path)
    assert "SIM006" not in fired_codes(report)


# -- interprocedural rules (DET001/DET002/SHARD001) -------------------------

def project_fixture(name: str):
    """Analyze a whole fixture directory (the call-graph rules need
    every module of the little project, not one file)."""
    paths = sorted((FIXTURES / name).rglob("*.py"))
    return analyze_paths(paths, root=FIXTURES)


PROJECT_RULE_FIXTURES = [
    ("DET001", "det001_bad", "det001_ok"),
    ("DET002", "det002_bad", "det002_ok"),
    ("SHARD001", "shard001_bad", "shard001_ok"),
    ("DET001", "shard002_bad", "shard002_ok"),
]


@pytest.mark.parametrize("code,bad,good", PROJECT_RULE_FIXTURES)
def test_project_rule_fires_on_bad_fixture(code, bad, good) -> None:
    report = project_fixture(bad)
    assert code in fired_codes(report), \
        f"{code} should fire on {bad}: {report.findings}"


@pytest.mark.parametrize("code,bad,good", PROJECT_RULE_FIXTURES)
def test_project_rule_passes_on_good_fixture(code, bad, good) -> None:
    report = project_fixture(good)
    assert fired_codes(report) == set(), \
        f"{good} must be fully clean: {report.findings}"


def test_det001_catches_what_file_local_rules_provably_miss() -> None:
    # The wall-clock read lives in a helper outside the sim path, so
    # only the call chain carries it into simenv: the finding is the
    # sim-path caller.  An entropy draw is in scope everywhere, so the
    # uuid4 draw reports at the draw itself.
    report = project_fixture("det001_bad")
    det = [f for f in report.findings if f.rule == "DET001"]
    assert [(f.path, f.line, f.col) for f in det] == [
        ("det001_bad/simenv/scheduler.py", 12, 0),
        ("det001_bad/util/ids.py", 7, 11),
    ]
    assert "now_seconds -> time.time" in det[0].message
    # The witness chain names the module holding the direct site.
    assert "det001_bad/util/clock.py" in det[0].message
    assert "uuid.uuid4" in det[1].message


#: One site of every kind a whole-module scan sees and a call graph can
#: miss — import-time code, class bodies, defaults, lambdas, bare
#: references, aliases, two reads on one line, nested classes and
#: closures — plus each effect's scope: CPU time in the shard engine
#: but not in the coordinator, and under eval/ every draw but no clock.
DET001_SITES = [
    ("det001_sites/eval/harness.py", 8, 0),  # module-level random.shuffle
    ("det001_sites/eval/harness.py", 12, 11),  # uuid.uuid4()
    ("det001_sites/eval/harness.py", 16, 11),  # random.SystemRandom()
    ("det001_sites/net/stamp.py", 7, 20),  # datetime.datetime.now()
    ("det001_sites/shard/engine.py", 7, 11),  # process_time in the engine
    ("det001_sites/shard/runner.py", 11, 11),  # the coordinator's time.time
    ("det001_sites/simenv/bodies.py", 8, 25),  # inside a lambda
    ("det001_sites/simenv/bodies.py", 9, 17),  # passed uncalled
    ("det001_sites/simenv/bodies.py", 10, 11),  # pc() aliasing perf_counter
    ("det001_sites/simenv/bodies.py", 14, 11),  # time.time() - ...
    ("det001_sites/simenv/bodies.py", 14, 25),  # ... - time.time()
    ("det001_sites/simenv/bodies.py", 20, 19),  # class nested in a function
    ("det001_sites/simenv/bodies.py", 23, 15),  # closure
    ("det001_sites/simenv/bodies.py", 31, 19),  # class nested in a class
    ("det001_sites/simenv/import_time.py", 5, 5),  # T0 = time.time()
    ("det001_sites/simenv/import_time.py", 9, 12),  # class-body reference
    ("det001_sites/simenv/import_time.py", 11, 28),  # default argument
]


def test_det001_reports_every_direct_site_where_it_is() -> None:
    report = project_fixture("det001_sites")
    assert [(f.path, f.line, f.col, f.rule) for f in report.findings] == \
        [(*site, "DET001") for site in DET001_SITES]


@pytest.mark.parametrize("clocks", [
    "class Host:\n"
    "    def read_host(self):\n"
    "        return time.time()\n",
    "class Clocks:\n"
    "    class Host:\n"
    "        def read_host(self):\n"
    "            return time.time()\n",
], ids=["module_scope_class", "nested_class"])
def test_det001_follows_untyped_calls_into_methods_at_any_depth(
        tmp_path: Path, clocks: str) -> None:
    # The clock helper sits outside the sim path, so only the chain
    # from the untyped call carries it in: a method of a nested class
    # is as much a dispatch target as one of a module-scope class.
    helper = tmp_path / "util" / "clocks.py"
    caller = tmp_path / "simenv" / "caller.py"
    helper.parent.mkdir()
    caller.parent.mkdir()
    helper.write_text("import time\n\n\n" + clocks)
    caller.write_text("def stamp(clock):\n"
                      "    return clock.read_host()\n")
    report = analyze_paths([helper, caller], root=tmp_path)
    assert [(f.path, f.line, f.col, f.rule) for f in report.findings] == \
        [("simenv/caller.py", 2, 0, "DET001")]


def test_det002_taints_through_unordered_return_helpers() -> None:
    report = project_fixture("det002_bad")
    det = [f for f in report.findings if f.rule == "DET002"]
    messages = " ".join(f.message for f in det)
    assert "ShardExchange(...) payload" in messages
    assert "make_request(...) wire payload" in messages


def test_shard001_reports_direct_mutator_and_helper_writes() -> None:
    report = project_fixture("shard001_bad")
    messages = [f.message for f in report.findings if f.rule == "SHARD001"]
    assert len(messages) == 3
    assert any("assigns to ghost-owned state" in m for m in messages)
    assert any(".update(...)" in m for m in messages)
    assert any("passes ghost-owned state to _touch" in m for m in messages)


def test_shard002_allows_process_time_only_in_runner() -> None:
    report = project_fixture("shard002_bad")
    messages = [f.message for f in report.findings if f.rule == "DET001"]
    assert any("wall-clock read time.time" in m for m in messages)
    assert any("outside the coordinator" in m for m in messages)
    # The coordinator itself is the sanctioned process_time user.
    assert project_fixture("shard002_ok").ok


# -- suppressions -----------------------------------------------------------

def test_file_scoped_suppression_moves_finding_aside() -> None:
    report = analyze_fixture("simenv/suppressed_sim001.py")
    assert report.ok
    assert [f.rule for f in report.suppressed] == ["DET001"]
    assert len(report.suppressions) == 1
    suppression = report.suppressions[0]
    assert suppression.rule == "DET001"
    assert "false-positive" in suppression.reason


def test_stale_suppression_is_itself_a_finding() -> None:
    report = analyze_fixture("simenv/stale_allow.py")
    assert not report.ok
    assert fired_codes(report) == {"SUP001"}
    assert "suppresses nothing" in report.findings[0].message


def test_function_scoped_suppression_covers_only_its_function() -> None:
    report = analyze_fixture("simenv/func_scoped_allow.py")
    # calibrate()'s read is waived; schedule()'s identical read is not.
    assert [f.rule for f in report.findings] == ["DET001"]
    assert [f.rule for f in report.suppressed] == ["DET001"]
    suppression = report.suppressions[0]
    assert suppression.scope == "calibrate"
    assert report.absorbed[suppression] == 1


def test_stale_function_scoped_suppression_fires_sup001() -> None:
    # The file has a real DET001 finding, but outside the waived span:
    # the function-scoped allowance still absorbed nothing.
    report = analyze_fixture("simenv/stale_func_allow.py")
    assert fired_codes(report) == {"DET001", "SUP001"}
    sup = [f for f in report.findings if f.rule == "SUP001"]
    assert "(scoped to quiet)" in sup[0].message


def test_suppression_reports_absorbed_counts() -> None:
    report = analyze_fixture("simenv/suppressed_sim001.py")
    payload = report.to_json()
    assert payload["suppressions"][0]["absorbed"] == 1
    assert payload["suppressions"][0]["scope"] == "file"
    assert "absorbed 1 finding(s)" in report.render_human()


# -- PROTO001 ---------------------------------------------------------------

def proto_project(name: str):
    root = FIXTURES / name / "community"
    return analyze_paths(sorted(root.glob("*.py")), root=FIXTURES)


def test_proto001_quiet_on_consistent_triangle() -> None:
    report = proto_project("proto_ok")
    assert "PROTO001" not in fired_codes(report), report.findings


def test_proto001_reports_every_broken_corner() -> None:
    report = proto_project("proto_bad")
    messages = [f.message for f in report.findings if f.rule == "PROTO001"]
    assert any("PS_ORPHAN" in m and "no server handler" in m
               for m in messages)
    assert any("PS_ORPHAN" in m and "no client" in m for m in messages)
    assert any("PS_UNSENT" in m and "no client" in m for m in messages)
    assert any("PS_GHOST" in m and "do not declare" in m for m in messages)
    assert any("PS_ROGUE" in m and "do not declare" in m for m in messages)


def test_proto001_skips_partial_module_sets() -> None:
    # Changed-file mode without protocol.py cannot see the triangle.
    report = analyze_fixture("proto_bad/community/client.py")
    assert "PROTO001" not in fired_codes(report)


def test_proto001_skips_incomplete_package() -> None:
    # protocol.py + server.py alone are not enough either: sibling
    # modules (filetransfer, discovery) declare and encode operations,
    # so judging the triangle from a package subset would report false
    # positives.  Regression: the real tree's protocol + server + client
    # subset used to yield 12 bogus "no server handler" findings.
    community = REPO_ROOT / "src" / "repro" / "community"
    subset = [community / "protocol.py", community / "server.py",
              community / "client.py"]
    report = analyze_paths(subset, root=REPO_ROOT)
    assert "PROTO001" not in fired_codes(report), report.findings


# -- PROTO002 ---------------------------------------------------------------

def test_proto002_quiet_when_every_op_is_exercised() -> None:
    report = proto_project("proto002_ok")
    assert "PROTO002" not in fired_codes(report), report.findings


def test_proto002_fires_on_unexercised_operation() -> None:
    report = proto_project("proto002_bad")
    messages = [f.message for f in report.findings if f.rule == "PROTO002"]
    assert any("PS_UNCOVERED" in m and "conformance exchange" in m
               for m in messages)
    assert not any("PS_PING" in m for m in messages)


def test_proto002_skips_projects_without_exchange_scripts() -> None:
    # The PROTO001 fixture has no exchanges.py: a project without a
    # conformance script module is out of PROTO002's jurisdiction
    # (and changed-file runs must not fail for the same reason).
    report = proto_project("proto_ok")
    assert "PROTO002" not in fired_codes(report), report.findings


def test_proto002_skips_partial_module_sets() -> None:
    report = analyze_fixture("proto002_bad/community/exchanges.py")
    assert "PROTO002" not in fired_codes(report)


def test_proto002_live_tree_covers_every_operation() -> None:
    # The real exchanges module must exercise the full vocabulary,
    # including ops registered outside protocol.py (PS_GETFILECHUNK).
    from repro.community import protocol

    exchanges = (REPO_ROOT / "src" / "repro" / "community" /
                 "exchanges.py").read_text()
    for op in sorted(protocol.OPERATIONS):
        assert op in exchanges, f"{op} missing from conformance exchanges"


# -- PARSE001 ---------------------------------------------------------------

def test_parse_failure_quotes_the_offending_line() -> None:
    report = analyze_fixture("broken/unparsable.py")
    assert fired_codes(report) == {"PARSE001"}
    finding = report.findings[0]
    assert finding.path == "broken/unparsable.py"
    assert "def broken(:" in finding.message  # the offending source line
    assert finding.line == 4


# -- report plumbing --------------------------------------------------------

def test_json_report_shape() -> None:
    report = analyze_fixture("simenv/bad_sim001.py", "simenv/suppressed_sim001.py")
    payload = report.to_json()
    assert payload["schema"] == SCHEMA
    assert payload["files_scanned"] == 2
    assert payload["ok"] is False
    assert payload["counts"]["DET001"] == 2
    assert len(payload["suppressed"]) == 1
    assert len(payload["suppressions"]) == 1
    round_trip = json.loads(json.dumps(payload))
    assert round_trip == payload


def test_findings_are_sorted_and_deterministic() -> None:
    once = analyze_fixture("simenv/bad_sim001.py", "simenv/bad_sim003.py")
    twice = analyze_fixture("simenv/bad_sim003.py", "simenv/bad_sim001.py")
    assert [f.render() for f in once.findings] == \
        [f.render() for f in twice.findings]
    assert once.findings == sorted(once.findings)


def test_rule_registry_is_complete() -> None:
    assert set(rule_codes()) >= {"SIM003", "SIM004", "SIM005", "SIM006",
                                 "PROTO001", "PROTO002", "SUP001",
                                 "PARSE001", "DET001", "DET002", "SHARD001"}


def test_partial_flag_distinguishes_file_lists_from_full_tree() -> None:
    partial = analyze_fixture("simenv/good_sim001.py")
    assert partial.partial is True
    assert partial.to_json()["partial"] is True
    assert "partial run" in partial.render_human()
    full = analyze_tree(SRC_TREE)
    assert full.partial is False
    assert "partial run" not in full.render_human()


def test_sarif_rendering() -> None:
    from repro.analysis.sarif import to_sarif

    report = analyze_fixture("simenv/bad_sim001.py")
    sarif = to_sarif(report)
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-analysis"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"SIM003", "DET001", "SHARD001"} <= rule_ids
    results = run["results"]
    assert len(results) == len(report.findings)
    first = results[0]
    assert first["ruleId"] == "DET001"
    region = first["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == report.findings[0].line
    assert region["startColumn"] == report.findings[0].col + 1
    assert run["properties"]["partial"] is True


# -- the live tree ----------------------------------------------------------

def test_live_tree_is_clean() -> None:
    report = analyze_tree(SRC_TREE)
    assert report.findings == [], \
        "\n".join(f.render() for f in report.findings)
    assert report.suppressions == [], \
        "suppressions must stay within the committed budget (0)"
    assert len(report.files) > 90  # the whole package, not a subset


def test_full_tree_fixpoint_is_fast_enough() -> None:
    # The acceptance budget for the interprocedural pass: the whole
    # tree — call graph, effect fixpoint, every rule — in under 10 s.
    import time as _time

    started = _time.perf_counter()
    analyze_tree(SRC_TREE)
    assert _time.perf_counter() - started < 10.0


# -- the CLI ----------------------------------------------------------------

def run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(CHECK_CLI), *argv],
        capture_output=True, text=True, cwd=str(REPO_ROOT))


def test_cli_clean_tree_exits_zero(tmp_path: Path) -> None:
    artifact = tmp_path / "report.json"
    result = run_cli("--output", str(artifact))
    assert result.returncode == 0, result.stdout + result.stderr
    payload = json.loads(artifact.read_text())
    assert payload["schema"] == SCHEMA
    assert payload["ok"] is True


def test_cli_bad_fixture_exits_nonzero() -> None:
    result = run_cli(str(FIXTURES / "simenv" / "bad_sim001.py"))
    assert result.returncode == 1
    assert "DET001" in result.stdout


def test_cli_suppression_budget_gates(tmp_path: Path) -> None:
    fixture = str(FIXTURES / "simenv" / "suppressed_sim001.py")
    strict = run_cli(fixture, "--max-suppressions", "0")
    assert strict.returncode == 1
    assert "suppression budget exceeded" in strict.stdout
    relaxed = run_cli(fixture, "--max-suppressions", "1")
    assert relaxed.returncode == 0, relaxed.stdout


def test_cli_json_mode() -> None:
    result = run_cli(str(FIXTURES / "simenv" / "bad_sim002.py"), "--json")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["counts"]["DET001"] >= 2


def test_cli_sarif_artifact(tmp_path: Path) -> None:
    artifact = tmp_path / "report.sarif"
    result = run_cli(str(FIXTURES / "simenv" / "bad_sim001.py"),
                     "--sarif", str(artifact))
    assert result.returncode == 1
    sarif = json.loads(artifact.read_text())
    assert sarif["version"] == "2.1.0"
    assert {r["ruleId"] for r in sarif["runs"][0]["results"]} == {"DET001"}


def test_cli_partial_run_warns_on_stderr() -> None:
    result = run_cli("--partial",
                     str(FIXTURES / "simenv" / "good_sim001.py"))
    assert result.returncode == 0
    assert "partial run" in result.stderr
    assert "not authoritative" in result.stderr


def test_cli_partial_run_still_catches_direct_reads() -> None:
    # Pre-commit's changed-file run: the call graph sees only the
    # changed file, but a direct read is a chain of length zero.
    result = run_cli("--partial",
                     str(FIXTURES / "simenv" / "bad_sim001.py"))
    assert result.returncode == 1
    path = "tests/analysis_fixtures/simenv/bad_sim001.py"
    assert f"{path}:7:11: DET001 " in result.stdout
    assert f"{path}:11:11: DET001 " in result.stdout


def test_cli_partial_without_paths_is_a_usage_error() -> None:
    result = run_cli("--partial")
    assert result.returncode == 2
    assert "explicit file list" in result.stderr


def test_cli_full_tree_is_not_partial(tmp_path: Path) -> None:
    artifact = tmp_path / "report.json"
    result = run_cli("--output", str(artifact))
    assert result.returncode == 0, result.stdout + result.stderr
    assert "partial run" not in result.stderr
    assert json.loads(artifact.read_text())["partial"] is False
