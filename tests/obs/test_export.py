"""Tests for the span JSONL export/import round trip and its failure modes."""

import json
import os

import pytest

from repro import obs
from repro.cli import main
from repro.obs.export import read_spans_jsonl, write_spans_jsonl
from repro.obs.spans import SpanRecorder

#: A sampled batch's span dump, written before the stack sampler was
#: removed: two spans and a trailing ``{"profile": ...}`` record.
SAMPLED_DUMP = os.path.join(os.path.dirname(__file__), "data",
                            "sampled.spans.jsonl")


def _recorded(tmp_path):
    recorder = SpanRecorder()
    with obs.recording(recorder):
        with obs.span("outer", problem="p"):
            with obs.span("inner"):
                pass
            obs.event("tick", n=1)
    path = str(tmp_path / "spans.jsonl")
    write_spans_jsonl(recorder, path)
    return path


class TestRoundTrip:
    def test_reads_back_what_was_written(self, tmp_path):
        path = _recorded(tmp_path)
        spans, events, header = read_spans_jsonl(path)
        assert sorted(s.name for s in spans) == ["inner", "outer"]
        assert [e.name for e in events] == ["tick"]
        assert header["format"] == "repro-spans/1"

    def test_reads_and_profiles_a_dump_with_a_profile_record(self, capsys):
        spans, events, header = read_spans_jsonl(SAMPLED_DUMP)
        assert sorted(s.name for s in spans) == ["job", "worker.request"]
        assert events == []
        assert header["num_spans"] == 2
        assert main(["profile", SAMPLED_DUMP]) == 0
        out = capsys.readouterr().out
        assert out.startswith("traced wall clock: 0.068s over 2 spans")
        assert "dark time (pid 8917)" in out


class TestTruncatedFinalLine:
    """A worker killed mid-write leaves a half-written last line; the reader
    must salvage every complete record instead of raising."""

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        path = _recorded(tmp_path)
        with open(path) as handle:
            lines = handle.read().splitlines()
        assert len(lines) >= 3
        # Chop the last record mid-JSON, the way SIGKILL during a write does.
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:-1]) + "\n")
            handle.write(lines[-1][: len(lines[-1]) // 2])
        spans, events, header = read_spans_jsonl(path)
        assert header["format"] == "repro-spans/1"
        # Every complete record before the torn tail survives.
        assert len(spans) + len(events) == len(lines) - 2

    def test_corrupt_interior_line_still_raises(self, tmp_path):
        path = _recorded(tmp_path)
        with open(path) as handle:
            lines = handle.read().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # torn *interior* line
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(json.JSONDecodeError):
            read_spans_jsonl(path)
