"""Tests for the calibration validator and the trace log."""

from __future__ import annotations

import pytest

from repro.eval.table8 import PAPER_TABLE8
from repro.eval.testbed import Testbed
from repro.eval.tracelog import TraceLog
from repro.eval.validation import format_validation, validate_table8
from repro.mobility import Point
from repro.sns.workflows import TaskTimes


class TestValidation:
    def test_perfect_match_has_zero_error(self):
        report = validate_table8(dict(PAPER_TABLE8))
        assert report.max_abs_relative == 0.0
        assert report.mean_abs_relative == 0.0
        assert report.shape_holds

    def test_relative_errors_computed(self):
        measured = dict(PAPER_TABLE8)
        measured["Facebook / Nokia N810"] = TaskTimes(58.0 * 1.2, 17.0,
                                                      8.0, 11.0)
        report = validate_table8(measured)
        assert report.max_abs_relative == pytest.approx(0.2)
        assert report.shape_holds

    def test_zero_cells_excluded_from_relative_stats(self):
        report = validate_table8(dict(PAPER_TABLE8))
        join_cells = [cell for cell in report.cells
                      if cell.task == "join_s"
                      and cell.column == "PeerHood Community"]
        assert join_cells[0].relative is None

    def test_shape_violation_nonzero_join(self):
        measured = dict(PAPER_TABLE8)
        measured["PeerHood Community"] = TaskTimes(11.0, 5.0, 15.0, 19.0)
        report = validate_table8(measured)
        assert not report.shape_holds
        assert any("join" in violation
                   for violation in report.shape_violations)

    def test_shape_violation_phc_loses(self):
        measured = dict(PAPER_TABLE8)
        measured["PeerHood Community"] = TaskTimes(200.0, 0.0, 15.0, 19.0)
        report = validate_table8(measured)
        assert any("does not beat" in violation
                   for violation in report.shape_violations)

    def test_shape_violation_device_ordering(self):
        measured = dict(PAPER_TABLE8)
        measured["Facebook / Nokia N95"] = TaskTimes(10.0, 5.0, 5.0, 5.0)
        report = validate_table8(measured)
        assert any("N95" in violation
                   for violation in report.shape_violations)

    def test_format_mentions_worst_cells(self):
        measured = dict(PAPER_TABLE8)
        measured["HI5 / Nokia N810"] = TaskTimes(50.0, 25.0, 36.0, 32.0)
        text = format_validation(validate_table8(measured))
        assert "worst" in text
        assert "member_list_s" in text
        assert "shape claims: all hold" in text


class TestTraceLog:
    def _traced_bed(self):
        bed = Testbed(seed=29, technologies=("bluetooth",))
        log = TraceLog()
        alice = bed.add_member("alice", ["football"])
        bob = bed.add_member("bob", ["football"])
        log.attach_testbed(bed)
        bed.run(40.0)
        return bed, log, alice, bob

    def test_event_counts(self):
        bed, log, _, _ = self._traced_bed()
        summary = log.summary()
        assert summary["device_found"] == 2     # each side finds the other
        assert summary["services_updated"] == 2
        assert summary["group_join"] >= 2       # alice+bob on alice's device
        bed.stop()

    def test_causal_ordering_found_before_join(self):
        bed, log, _, _ = self._traced_bed()
        alice_events = log.for_device("alice")
        kinds = [entry.kind for entry in alice_events]
        assert kinds.index("device_found") < kinds.index("group_join")
        assert (kinds.index("services_updated")
                < kinds.index("group_join"))
        bed.stop()

    def test_departure_traced_as_group_leave(self):
        bed, log, alice, bob = self._traced_bed()
        bed.world.move_node("bob", Point(200, 200))
        bed.run(40.0)
        leaves = log.of_kind("group_leave")
        assert any(entry.detail["member"] == "bob" for entry in leaves)
        losses = log.of_kind("device_lost")
        assert any(entry.detail["device"] == "bob" for entry in losses)
        bed.stop()

    def test_two_logs_record_the_same_entries(self):
        bed = Testbed(seed=29, technologies=("bluetooth",))
        first, second = TraceLog(), TraceLog()
        bed.add_member("alice", ["football"])
        bed.add_member("bob", ["football"])
        first.attach_testbed(bed)
        second.attach_testbed(bed)
        bed.run(40.0)
        assert first.summary()["group_join"] == 4
        assert second.entries == first.entries
        bed.stop()

    def test_log_attached_after_formation_records_the_leave(self):
        bed = Testbed(seed=29, technologies=("bluetooth",))
        alice = bed.add_member("alice", ["football"])
        bed.add_member("bob", ["football"])
        bed.run(40.0)
        log = TraceLog()
        log.attach_testbed(bed)
        bed.world.move_node("bob", Point(200, 200))
        bed.run(40.0)
        left = alice.app.engine.groups.get("football").history[-1]
        assert (left.member_id, left.joined) == ("bob", False)
        assert [(entry.time, entry.device_id, entry.detail["member"])
                for entry in log.of_kind("group_leave")] == [
            (left.time, "alice", "bob"),
            (log.of_kind("device_lost")[1].time, "bob", "alice")]
        bed.stop()

    def test_jsonl_round_trip(self, tmp_path):
        bed, log, _, _ = self._traced_bed()
        target = tmp_path / "trace.jsonl"
        count = log.export_jsonl(target)
        assert count == len(log.entries)
        loaded = TraceLog.load_jsonl(target)
        assert loaded.summary() == log.summary()
        assert loaded.entries[0] == log.entries[0]
        bed.stop()

    def test_timestamps_monotone(self):
        bed, log, _, _ = self._traced_bed()
        times = [entry.time for entry in log.entries]
        assert times == sorted(times)
        bed.stop()
