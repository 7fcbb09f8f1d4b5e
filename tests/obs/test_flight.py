"""Flight recorder journals and post-mortem recovery (repro.obs.flight)."""

import json

from repro import obs
from repro.obs.export import SPANS_FORMAT, read_jsonl, read_spans_jsonl
from repro.obs.flight import (
    FlightRecorder,
    read_postmortem,
    render_postmortem,
)


def journal_lines(path):
    return [line for line in path.read_text().splitlines() if line.strip()]


class TestFlightRecorder:
    def test_header_and_notes_flushed_immediately(self, tmp_path):
        path = tmp_path / "job.flight.jsonl"
        flight = FlightRecorder(str(path), meta={"job_id": "job-1"})
        flight.note("job.start", timeout=5.0)
        # No close(): the journal must already be on disk, as after SIGKILL.
        lines = journal_lines(path)
        assert len(lines) == 2
        header = json.loads(lines[0])
        assert header["format"] == SPANS_FORMAT
        assert header["meta"] == {"job_id": "job-1"}
        note = json.loads(lines[1])["note"]
        assert note["name"] == "job.start"
        assert note["attrs"] == {"timeout": 5.0}
        flight.close()

    def test_mirrors_ambient_recorder_via_sink(self, tmp_path):
        path = tmp_path / "job.flight.jsonl"
        flight = FlightRecorder(str(path))
        with obs.recording() as recorder:
            recorder.sink = flight
            with obs.span("solve", problem="max2"):
                obs.event("cegis.counterexample", round=1)
        flight.close()
        # The journal is a span dump: the span reader takes it as it is.
        spans, events, header = read_spans_jsonl(str(path))
        assert header["format"] == SPANS_FORMAT
        assert [s.name for s in spans] == ["solve"]
        assert spans[0].attrs["problem"] == "max2"
        assert [e.name for e in events] == ["cegis.counterexample"]

    def test_rotation_bounds_the_journal(self, tmp_path):
        path = tmp_path / "job.flight.jsonl"
        flight = FlightRecorder(str(path), capacity=10)
        for i in range(100):
            flight.note("tick", i=i)
        flight.close()
        lines = journal_lines(path)
        # Bounded: never more than header + 2*capacity + rotation slack.
        assert len(lines) <= 1 + 2 * 10 + 1
        records = read_jsonl(str(path))
        assert records[0]["format"] == SPANS_FORMAT  # survives rotate
        ticks = [r["note"]["attrs"]["i"] for r in records if "note" in r]
        assert ticks == sorted(ticks)
        assert ticks[-1] == 99  # most recent records survive

    def test_failing_journal_never_raises(self, tmp_path):
        path = tmp_path / "job.flight.jsonl"
        flight = FlightRecorder(str(path))
        flight._handle.close()  # simulate the fd going bad mid-job
        flight.note("job.end", status="solved")  # must not raise
        assert flight._closed


class TestReadFlightJournal:
    def test_truncated_final_line_tolerated(self, tmp_path):
        path = tmp_path / "job.flight.jsonl"
        flight = FlightRecorder(str(path))
        flight.note("job.start")
        flight.note("job.progress", step=2)
        flight.close()
        torn = path.read_text()[:-9]  # SIGKILL mid-write of the last record
        path.write_text(torn)
        journal = read_postmortem(str(path))
        assert journal["truncated"]
        assert journal["corrupt"] == 0
        assert [n["name"] for n in journal["notes"]] == ["job.start"]

    def test_corrupt_interior_counted_not_raised(self, tmp_path):
        path = tmp_path / "job.flight.jsonl"
        flight = FlightRecorder(str(path))
        flight.note("job.start")
        flight.close()
        lines = path.read_text().splitlines()
        lines.insert(1, '{"note": {"name": "half')
        path.write_text("\n".join(lines) + "\n")
        journal = read_postmortem(str(path))
        assert journal["corrupt"] == 1
        assert not journal["truncated"]
        assert [n["name"] for n in journal["notes"]] == ["job.start"]


class TestReadPostmortem:
    def test_missing_and_empty_files_yield_none(self, tmp_path):
        assert read_postmortem(str(tmp_path / "absent.jsonl")) is None
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert read_postmortem(str(empty)) is None

    def test_payload_shape(self, tmp_path):
        path = tmp_path / "job.flight.jsonl"
        flight = FlightRecorder(str(path), meta={"job_id": "job-3",
                                                 "name": "max2"})
        flight.note("job.start", timeout=2.0)
        with obs.recording() as recorder:
            recorder.sink = flight
            with obs.span("enum", height=3):
                pass
            obs.event("smt.sat")
        # No job.end note and no close: the worker died here.
        postmortem = read_postmortem(str(path))
        assert postmortem["meta"]["job_id"] == "job-3"
        assert postmortem["pid"]
        assert [n["name"] for n in postmortem["notes"]] == ["job.start"]
        assert postmortem["num_spans"] == 1
        assert postmortem["num_events"] == 1
        kind, payload = next(iter(postmortem["last"].items()))
        assert kind == "event" and payload["name"] == "smt.sat"

    def test_tail_bounds_the_payload(self, tmp_path):
        path = tmp_path / "job.flight.jsonl"
        flight = FlightRecorder(str(path), capacity=500)
        with obs.recording() as recorder:
            recorder.sink = flight
            for i in range(40):
                obs.event("tick", i=i)
        postmortem = read_postmortem(str(path), tail=5)
        assert postmortem["num_events"] == 40
        assert [e["attrs"]["i"] for e in postmortem["events"]] == [
            35, 36, 37, 38, 39,
        ]
        # A zero (or negative) tail keeps no records, not all of them.
        for tail in (0, -2):
            postmortem = read_postmortem(str(path), tail=tail)
            assert postmortem["num_events"] == 40
            assert postmortem["events"] == []

    def test_render_contains_the_story(self, tmp_path):
        path = tmp_path / "job.flight.jsonl"
        flight = FlightRecorder(str(path), meta={"job_id": "job-9"})
        flight.note("job.start", timeout=1.0)
        with obs.recording() as recorder:
            recorder.sink = flight
            with obs.span("deduct", problem="sum3"):
                pass
        report = render_postmortem(read_postmortem(str(path)))
        assert "post-mortem: job-9" in report
        assert "job.start" in report
        assert "deduct" in report
        assert "last activity" in report


class TestForensicsFrontier:
    """Post-mortems name the graph node the worker touched last."""

    def _journal(self, tmp_path, records):
        from repro.obs.flight import FlightRecorder
        from repro.obs.spans import ObsEvent, Span

        recorder = FlightRecorder(str(tmp_path / "j.flight.jsonl"))
        for record in records:
            if isinstance(record, Span):
                recorder.on_span(record)
            else:
                recorder.on_event(record)
        recorder.close()
        return recorder.path

    def test_frontier_names_the_last_active_node(self, tmp_path):
        from repro.obs.flight import read_postmortem, render_postmortem
        from repro.obs.spans import ObsEvent, Span

        path = self._journal(tmp_path, [
            ObsEvent("graph.node", 0.0,
                     {"node": "aaa111", "fun": "f", "depth": 0},
                     "forensics", 1),
            ObsEvent("graph.node", 0.1,
                     {"node": "bbb222", "fun": "g0!f", "parent": "aaa111",
                      "strategy": "fixed-term", "depth": 1},
                     "forensics", 1),
            Span(2, 1, "deduct", 0.2, wall=0.1, attrs={"node": "aaa111"}),
            ObsEvent("deduct.rule", 0.35, {"rule": "match",
                                           "outcome": "failed"},
                     "forensics", 3),
            ObsEvent("divide.reject", 0.4,
                     {"node": "bbb222", "strategy": "fixed-term",
                      "reason": "not-in-grammar"}, "forensics", 3),
            Span(3, 1, "enum", 0.3, wall=0.5, attrs={"node": "bbb222"}),
        ])
        postmortem = read_postmortem(path)
        frontier = postmortem["frontier"]
        assert frontier is not None
        assert frontier["node"] == "bbb222"
        assert frontier["fun"] == "g0!f"
        assert frontier["last_strategy"] == "fixed-term"
        assert frontier["last_rule"] == "match"
        rendered = render_postmortem(postmortem)
        assert "frontier: node bbb222" in rendered
        assert "last_rule=match" in rendered

    def test_frontier_reports_only_its_own_rule_and_cex(self, tmp_path):
        """Another node's failed rule and counterexample are not the
        frontier node's, even when they are the journal's latest."""
        from repro.obs.flight import read_postmortem, render_postmortem
        from repro.obs.spans import ObsEvent, Span

        path = self._journal(tmp_path, [
            ObsEvent("graph.node", 0.0,
                     {"node": "aaa111", "fun": "f", "depth": 0},
                     "forensics", 1),
            ObsEvent("graph.node", 0.1,
                     {"node": "bbb222", "fun": "g0!f", "parent": "aaa111",
                      "strategy": "fixed-term", "depth": 1},
                     "forensics", 1),
            ObsEvent("deduct.rule", 0.25, {"rule": "match",
                                           "outcome": "failed"},
                     "forensics", 2),
            ObsEvent("cegis.cex", 0.28, {"cex": '{"x":7}'}, "forensics", 2),
            Span(2, 1, "deduct", 0.2, wall=0.1, attrs={"node": "aaa111"}),
            Span(3, 1, "enum", 0.3, wall=0.5, attrs={"node": "bbb222"}),
        ])
        postmortem = read_postmortem(path)
        frontier = postmortem["frontier"]
        assert frontier == {"node": "bbb222", "via": "enum", "fun": "g0!f",
                            "depth": 1}
        rendered = render_postmortem(postmortem)
        assert "  frontier: node bbb222 fun=g0!f depth=1 via=enum\n" in (
            rendered + "\n")
        assert "last counterexample" not in rendered

    def test_no_node_records_means_no_frontier(self, tmp_path):
        from repro.obs.flight import read_postmortem
        from repro.obs.spans import Span

        path = self._journal(tmp_path, [
            Span(1, None, "synth", 0.0, wall=1.0),
        ])
        postmortem = read_postmortem(path)
        assert postmortem["frontier"] is None


class TestKillRecords:
    """Satellite: post-mortems distinguish kill causes.  The parent appends
    a ``{"kill": ...}`` record to the dead worker's journal and the
    renderer tells deadline, RSS-budget and self-inflicted deaths apart."""

    def _dead_journal(self, tmp_path):
        from repro.obs.flight import append_kill_record  # noqa: F401

        path = tmp_path / "victim.flight.jsonl"
        flight = FlightRecorder(str(path), meta={"name": "victim"})
        flight.note("job.start", timeout=2.0)
        # No job.end, no close: the worker is dead from here on.
        return path

    def test_kill_record_read_back(self, tmp_path):
        from repro.obs.flight import append_kill_record

        path = self._dead_journal(tmp_path)
        append_kill_record(
            str(path), cause="oom_budget", reason="rss over budget",
            signal="SIGTERM", exitcode=-15,
            last_rss_bytes=300 * 1024 * 1024,
        )
        journal = read_postmortem(str(path))
        kill = journal["kill"]
        assert kill["cause"] == "oom_budget"
        assert kill["signal"] == "SIGTERM"
        assert kill["ts"] > 0
        # The parent's append did not corrupt the worker's own records.
        assert [n["name"] for n in journal["notes"]] == ["job.start"]
        assert journal["corrupt"] == 0

    def test_kill_record_survives_torn_worker_line(self, tmp_path):
        from repro.obs.flight import append_kill_record

        path = self._dead_journal(tmp_path)
        with open(path, "a") as handle:
            handle.write('{"note": {"name": "half-writ')  # died mid-append
        append_kill_record(str(path), cause="deadline", reason="2s over")
        journal = read_postmortem(str(path))
        assert journal["kill"]["cause"] == "deadline"
        # The torn half-line is interior damage now, counted not fatal.
        assert journal["corrupt"] == 1

    def test_render_distinguishes_causes(self, tmp_path):
        from repro.obs.flight import append_kill_record

        renderings = {}
        for cause, extra in [
            ("deadline", {"signal": "SIGKILL", "exitcode": -9}),
            ("oom_budget", {"last_rss_bytes": 128 * 1024 * 1024}),
            ("crash", {"exitcode": 13}),
        ]:
            (tmp_path / cause).mkdir()
            path = self._dead_journal(tmp_path / cause)
            append_kill_record(str(path), cause=cause,
                               reason=f"{cause} reason", **extra)
            renderings[cause] = render_postmortem(read_postmortem(str(path)))
        assert ("killed (deadline): hard deadline exceeded"
                in renderings["deadline"])
        assert "signal=SIGKILL" in renderings["deadline"]
        assert ("killed (oom_budget): RSS budget exceeded"
                in renderings["oom_budget"])
        assert "last_rss=128.0MB" in renderings["oom_budget"]
        assert ("killed (crash): worker died on its own"
                in renderings["crash"])
        assert "exitcode=13" in renderings["crash"]
        for cause in renderings:
            assert f"reason: {cause} reason" in renderings[cause]

    def test_no_kill_record_renders_nothing(self, tmp_path):
        path = self._dead_journal(tmp_path)
        postmortem = read_postmortem(str(path))
        assert postmortem["kill"] is None
        assert "killed (" not in render_postmortem(postmortem)
