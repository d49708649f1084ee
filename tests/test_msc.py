"""Tests for MSC recording and rendering, including regeneration of the
paper's Figures 11-17 message sequences from live runs."""

from __future__ import annotations

import pytest

from repro.eval.mscfigures import FIGURE_TITLES, record_figure, render_figure
from repro.msc import MscRecorder, render_msc


class TestRecorder:
    def test_participants_in_first_appearance_order(self):
        recorder = MscRecorder()
        recorder.message(0.0, "client", "server1", "REQ")
        recorder.message(1.0, "server1", "client", "OK")
        recorder.message(2.0, "client", "server2", "REQ")
        assert recorder.participants() == ["client", "server1", "server2"]

    def test_messages_between(self):
        recorder = MscRecorder()
        recorder.message(0.0, "a", "b", "x")
        recorder.message(1.0, "b", "a", "y")
        recorder.message(2.0, "a", "c", "z")
        assert [e.label for e in recorder.messages_between("a", "b")] == [
            "x", "y"]

    def test_labels_filter_by_kind(self):
        recorder = MscRecorder()
        recorder.message(0.0, "a", "b", "msg")
        recorder.action(1.0, "b", "act")
        recorder.note(2.0, "b", "n")
        assert recorder.labels("message") == ["msg"]
        assert recorder.labels("action") == ["act"]
        assert recorder.labels() == ["msg", "act", "n"]

    def test_subchart_filters_participants(self):
        recorder = MscRecorder()
        recorder.message(0.0, "a", "b", "keep")
        recorder.message(1.0, "a", "c", "drop")
        view = recorder.subchart(["a", "b"])
        assert view.labels() == ["keep"]

    def test_clear(self):
        recorder = MscRecorder()
        recorder.message(0.0, "a", "b", "x")
        recorder.clear()
        assert recorder.events == []


class TestRenderer:
    def test_empty_chart(self):
        assert "empty MSC" in render_msc(MscRecorder())

    def test_arrows_point_the_right_way(self):
        recorder = MscRecorder()
        recorder.message(0.0, "left", "right", "GO")
        recorder.message(1.0, "right", "left", "BACK")
        art = render_msc(recorder)
        lines = art.splitlines()
        go_line = next(line for line in lines if "GO" in line)
        back_line = next(line for line in lines if "BACK" in line)
        assert ">" in go_line and "<" not in go_line
        assert "<" in back_line and ">" not in back_line

    def test_labels_and_title_present(self):
        recorder = MscRecorder()
        recorder.message(0.0, "client", "server", "PS_GETPROFILE")
        recorder.action(0.5, "server", "writes visitor")
        art = render_msc(recorder, title="Figure X")
        assert "Figure X" in art
        assert "PS_GETPROFILE" in art
        assert "[writes visitor]" in art


@pytest.mark.parametrize("figure", sorted(FIGURE_TITLES))
def test_figures_render_with_title(figure):
    art = render_figure(figure, seed=1)
    assert FIGURE_TITLES[figure].split(":")[0] in art


class TestFigureSequences:
    """The recorded exchanges must match the paper's MSCs."""

    def test_figure11_member_list_broadcast(self):
        recorder, result = record_figure(11, seed=2)
        to_bob = [e.label for e in recorder.messages_between(
            "client:alice", "server:bob")]
        to_carol = [e.label for e in recorder.messages_between(
            "client:alice", "server:carol")]
        assert to_bob == ["PS_GETONLINEMEMBERLIST", "OK"]
        assert to_carol == ["PS_GETONLINEMEMBERLIST", "OK"]
        assert [m["member_id"] for m in result] == ["bob", "carol"]

    def test_figure12_interest_list(self):
        recorder, result = record_figure(12, seed=2)
        assert "PS_GETINTERESTLIST" in recorder.labels("message")
        assert set(result) == {"football", "music", "movies"}

    def test_figure13_profile_desired_vs_other_server(self):
        recorder, result = record_figure(13, seed=2)
        bob_labels = [e.label for e in recorder.messages_between(
            "client:alice", "server:bob")]
        carol_labels = [e.label for e in recorder.messages_between(
            "client:alice", "server:carol")]
        assert bob_labels == ["PS_GETPROFILE", "OK"]
        assert carol_labels == ["PS_GETPROFILE", "NO_MEMBERS_YET"]
        assert "writes profile visitor" in recorder.labels("action")
        assert result["member_id"] == "bob"

    def test_figure14_comment_written_only_on_desired_server(self):
        recorder, result = record_figure(14, seed=2)
        bob_labels = [e.label for e in recorder.messages_between(
            "client:alice", "server:bob")]
        assert bob_labels == ["PS_ADDPROFILECOMMENT", "SUCCESSFULLY_WRITTEN"]
        assert "writes comment to profile file" in recorder.labels("action")
        assert result is True

    def test_figure15_trusted_friends(self):
        recorder, result = record_figure(15, seed=2)
        bob_labels = [e.label for e in recorder.messages_between(
            "client:alice", "server:bob")]
        assert bob_labels == ["PS_GETTRUSTEDFRIEND", "OK"]
        assert result == ["alice"]

    def test_figure16_two_phase_trusted_content(self):
        recorder, result = record_figure(16, seed=2)
        bob_labels = [e.label for e in recorder.messages_between(
            "client:alice", "server:bob")]
        assert bob_labels == ["PS_CHECKTRUSTED", "OK",
                              "PS_GETSHAREDCONTENT", "OK"]
        assert {entry["name"] for entry in result} == {
            "match_highlights.mp4", "lineup.txt"}

    def test_figure17_message_written_to_inbox(self):
        recorder, result = record_figure(17, seed=2)
        bob_labels = [e.label for e in recorder.messages_between(
            "client:alice", "server:bob")]
        assert bob_labels == ["PS_MSG", "SUCCESSFULLY_WRITTEN"]
        assert "writes mail to inbox file" in recorder.labels("action")
        assert result == "SUCCESSFULLY_WRITTEN"

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            record_figure(99)
