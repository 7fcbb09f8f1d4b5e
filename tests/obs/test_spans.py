"""Span recorder semantics: nesting, exception safety, typing, no-op mode."""

import json

import pytest

from repro import obs
from repro.obs.spans import NULL_SPAN, ObsEvent, Span, SpanRecorder


class TestNesting:
    def test_parent_child_links(self):
        recorder = SpanRecorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        inner, outer = recorder.spans
        assert inner.name == "inner"
        assert outer.name == "outer"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_siblings_share_parent(self):
        recorder = SpanRecorder()
        with recorder.span("root"):
            with recorder.span("a"):
                pass
            with recorder.span("b"):
                pass
        a, b, root = recorder.spans
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id
        assert a.span_id != b.span_id

    def test_deep_nesting_chain(self):
        recorder = SpanRecorder()
        with recorder.span("l0"):
            with recorder.span("l1"):
                with recorder.span("l2"):
                    pass
        by_name = {s.name: s for s in recorder.spans}
        assert by_name["l2"].parent_id == by_name["l1"].span_id
        assert by_name["l1"].parent_id == by_name["l0"].span_id

    def test_children_wall_bounded_by_parent(self):
        recorder = SpanRecorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        inner, outer = recorder.spans
        assert 0.0 <= inner.wall <= outer.wall

    def test_events_attach_to_innermost_span(self):
        recorder = SpanRecorder()
        with recorder.span("outer"):
            with recorder.span("inner") as inner:
                recorder.add_event("hit", detail="x")
        assert recorder.events[0].span_id == inner.span_id

    def test_current_span_id_tracks_stack(self):
        recorder = SpanRecorder()
        assert recorder.current_span_id is None
        with recorder.span("s") as live:
            assert recorder.current_span_id == live.span_id
        assert recorder.current_span_id is None


class TestExceptionSafety:
    def test_exception_marks_status_error_and_closes(self):
        recorder = SpanRecorder()
        with pytest.raises(ValueError):
            with recorder.span("boom"):
                raise ValueError("x")
        (span,) = recorder.spans
        assert span.status == "error"
        assert recorder.current_span_id is None

    def test_leaked_inner_span_does_not_corrupt_stack(self):
        recorder = SpanRecorder()
        with recorder.span("outer"):
            # Simulate a leaked span: entered but never exited.
            leaked = recorder.span("leaked")
            leaked.__enter__()
        # Outer's exit popped past the leaked entry; new spans are roots.
        with recorder.span("after"):
            pass
        after = recorder.spans[-1]
        assert after.parent_id is None

    def test_outer_span_still_ok_after_inner_error(self):
        recorder = SpanRecorder()
        with recorder.span("outer"):
            with pytest.raises(RuntimeError):
                with recorder.span("inner"):
                    raise RuntimeError("inner fails")
        by_name = {s.name: s for s in recorder.spans}
        assert by_name["inner"].status == "error"
        assert by_name["outer"].status == "ok"


class TestAttributeTyping:
    def test_scalars_preserved(self):
        recorder = SpanRecorder()
        with recorder.span("s", n=3, x=1.5, flag=True, text="hi", none=None):
            pass
        attrs = recorder.spans[0].attrs
        assert attrs == {"n": 3, "x": 1.5, "flag": True, "text": "hi",
                         "none": None}

    def test_non_scalars_coerced_to_str(self):
        recorder = SpanRecorder()
        with recorder.span("s", items=[1, 2], mapping={"a": 1}):
            pass
        attrs = recorder.spans[0].attrs
        assert attrs["items"] == "[1, 2]"
        assert attrs["mapping"] == "{'a': 1}"

    def test_set_updates_open_span(self):
        recorder = SpanRecorder()
        with recorder.span("s", a=1) as live:
            live.set(b=2, a=10)
        assert recorder.spans[0].attrs == {"a": 10, "b": 2}

    def test_attrs_json_round_trip(self):
        recorder = SpanRecorder()
        with recorder.span("s", height=2, obj=object()):
            pass
        span = Span.from_json(recorder.spans[0].to_json())
        assert span.attrs["height"] == 2
        assert isinstance(span.attrs["obj"], str)

    def test_times_json_round_trip_exactly(self):
        # A dump must reproduce the in-memory report to the last rendered
        # digit, so no timing may be rounded on the way out.
        span = Span(1, None, "s", start=0.1234564999, wall=0.0000004,
                    cpu=1 / 3)
        event = ObsEvent("e", elapsed=2 / 3, attrs={}, span_id=1)
        assert Span.from_json(json.loads(json.dumps(span.to_json()))) == span
        assert ObsEvent.from_json(
            json.loads(json.dumps(event.to_json()))
        ) == event


class TestDisabledMode:
    def test_ambient_span_is_null_when_disabled(self):
        assert obs.active() is None
        assert obs.span("anything", x=1) is NULL_SPAN

    def test_null_span_is_inert(self):
        with obs.span("nothing") as span:
            span.set(a=1)
        # No recorder: nothing anywhere to assert beyond "does not raise".
        assert not obs.enabled()

    def test_disabled_metrics_do_not_leak_into_recordings(self):
        obs.metrics().counter("leak.test").inc(100)
        with obs.recording() as recorder:
            pass
        assert recorder.metrics.counter("leak.test").value == 0

    def test_recording_installs_and_restores(self):
        assert obs.active() is None
        with obs.recording() as recorder:
            assert obs.active() is recorder
            with obs.recording() as inner:
                assert obs.active() is inner
            assert obs.active() is recorder
        assert obs.active() is None

    def test_recording_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.recording():
                raise RuntimeError("x")
        assert obs.active() is None


class TestCapacity:
    def test_span_cap_drops_and_counts(self):
        recorder = SpanRecorder(max_spans=2)
        for _ in range(4):
            with recorder.span("s"):
                pass
        assert len(recorder.spans) == 2
        assert recorder.dropped == 2

    def test_to_json_shape(self):
        recorder = SpanRecorder()
        with recorder.span("s"):
            recorder.add_event("e")
        data = recorder.to_json()
        assert data["format"] == "repro-spans/1"
        assert len(data["spans"]) == 1
        assert len(data["events"]) == 1
