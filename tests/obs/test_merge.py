"""Cross-process telemetry: deterministic merges and the pool round trip."""

import multiprocessing as mp

import pytest

from repro import obs
from repro.obs.spans import SpanRecorder
from repro.service.jobs import SOLVED, SynthesisJob
from repro.service.pool import WorkerPool

MAX2_SL = """
(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Int)
(declare-var x Int)
(declare-var y Int)
(constraint (>= (f x y) x))
(constraint (>= (f x y) y))
(constraint (or (= (f x y) x) (= (f x y) y)))
(check-synth)
"""


def _available_start_methods():
    return [m for m in ("fork", "spawn") if m in mp.get_all_start_methods()]


def _child_payload():
    """A worker-shaped recorder: synth > enum > smt.solve plus one event."""
    child = SpanRecorder()
    with child.span("synth", problem="p"):
        with child.span("enum", height=2):
            with child.span("smt.solve", rounds=1):
                pass
            child.add_event("hit", domain="trace")
    return child.to_json()


class TestMergeSerialized:
    def test_reroots_under_synthetic_job_span(self):
        parent = SpanRecorder()
        root_id = parent.merge_serialized(
            _child_payload(), attrs={"name": "p", "status": "solved"},
            wall=1.5,
        )
        by_name = {s.name: s for s in parent.spans}
        job = by_name["job"]
        assert job.span_id == root_id
        assert job.parent_id is None
        assert job.wall == 1.5
        assert job.attrs == {"name": "p", "status": "solved"}
        assert by_name["synth"].parent_id == root_id
        assert by_name["enum"].parent_id == by_name["synth"].span_id
        assert by_name["smt.solve"].parent_id == by_name["enum"].span_id

    def test_merge_is_deterministic(self):
        payload = _child_payload()
        a, b = SpanRecorder(), SpanRecorder()
        for recorder in (a, b):
            recorder.merge_serialized(payload, wall=1000.0)
            recorder.merge_serialized(payload, wall=1000.0)
        # Same payloads, same order -> byte-identical span trees (the large
        # wall back-dates every start offset to exactly 0).
        assert [s.to_json() for s in a.spans] == [s.to_json() for s in b.spans]
        assert [e.to_json() for e in a.events] == [e.to_json() for e in b.events]

    def test_events_remap_to_new_span_ids(self):
        parent = SpanRecorder()
        parent.merge_serialized(_child_payload(), wall=1000.0)
        by_name = {s.name: s for s in parent.spans}
        (event,) = parent.events
        assert event.name == "hit"
        assert event.span_id == by_name["enum"].span_id

    def test_unknown_parent_attaches_to_job_root(self):
        payload = {
            "spans": [
                {"span_id": 5, "parent_id": 99, "name": "orphan",
                 "start": 0.0, "wall": 0.1}
            ]
        }
        parent = SpanRecorder()
        root_id = parent.merge_serialized(payload, wall=1000.0)
        orphan = next(s for s in parent.spans if s.name == "orphan")
        assert orphan.parent_id == root_id

    def test_empty_payload_is_noop(self):
        parent = SpanRecorder()
        assert parent.merge_serialized(None) is None
        assert parent.merge_serialized({}) is None
        assert parent.spans == []

    def test_child_dropped_count_propagates(self):
        payload = _child_payload()
        payload["dropped"] = 3
        parent = SpanRecorder()
        parent.merge_serialized(payload, wall=1000.0)
        assert parent.dropped == 3

    def test_events_past_the_cap_are_all_counted(self):
        payload = {
            "events": [
                {"name": f"e{i}", "elapsed": 0.0, "attrs": {}}
                for i in range(10)
            ]
        }
        parent = SpanRecorder(max_spans=3)
        parent.merge_serialized(payload, wall=1000.0)
        assert len(parent.events) == 3
        assert parent.dropped == 7
        assert parent.metrics.counter("obs.spans_dropped").value == 7


class TestMergeJobTelemetry:
    def test_merges_spans_and_metrics_into_ambient(self):
        child = SpanRecorder()
        with child.span("synth"):
            pass
        child.metrics.counter("smt.checks").inc(7)
        payload = {"spans": child.to_json(),
                   "metrics": child.metrics.snapshot()}
        with obs.recording() as recorder:
            obs.merge_job_telemetry(payload, name="p", status="solved",
                                    wall_time=0.5)
        assert recorder.metrics.counter("smt.checks").value == 7
        names = [s.name for s in recorder.spans]
        assert "job" in names and "synth" in names

    def test_noop_when_disabled_or_empty(self):
        obs.merge_job_telemetry({"spans": {}, "metrics": {}})  # disabled
        with obs.recording() as recorder:
            obs.merge_job_telemetry(None)
        assert recorder.spans == []


class TestPoolRoundTrip:
    def _telemetry_job(self):
        return SynthesisJob(problem_text=MAX2_SL, solver="dryadsynth",
                            timeout=30, hard_timeout=120, name="max2",
                            telemetry=True)

    # fork is the default where available; spawn is the only start method
    # on platforms without fork, and this reaches it on Linux too.
    @pytest.mark.parametrize("start_method", _available_start_methods())
    def test_worker_telemetry_merges_into_parent(self, start_method):
        with obs.recording() as recorder:
            with WorkerPool(workers=1, start_method=start_method) as pool:
                result = pool.run([self._telemetry_job()])[0]
        assert result.status == SOLVED
        assert result.telemetry is not None
        assert result.rusage is not None
        assert result.queue_wait >= 0.0
        # The worker's span tree landed under a "job" root in the parent.
        by_name = {}
        for span in recorder.spans:
            by_name.setdefault(span.name, span)
        assert "job" in by_name
        assert by_name["job"].attrs["name"] == "max2"
        assert by_name["job"].attrs["status"] == SOLVED
        assert "synth" in by_name
        assert by_name["synth"].pid != recorder.pid  # crossed a process
        # Fleet-wide metrics carry the worker's SMT counters.
        assert recorder.metrics.counter("smt.checks").value > 0
        assert recorder.metrics.counter("pool.jobs_completed").value == 1

    def test_telemetry_off_by_default(self):
        job = SynthesisJob(problem_text=MAX2_SL, solver="dryadsynth",
                           timeout=30, hard_timeout=120, name="max2")
        with WorkerPool(workers=1) as pool:
            result = pool.run([job])[0]
        assert result.telemetry is None

    def test_cache_hit_strips_stale_telemetry(self, tmp_path):
        from repro.service.cache import ResultCache

        cache = ResultCache(str(tmp_path / "cache"))
        with WorkerPool(workers=1, cache=cache) as pool:
            first = pool.run([self._telemetry_job()])[0]
            second = pool.run([self._telemetry_job()])[0]
        assert first.telemetry is not None
        assert second.from_cache
        # Cached telemetry describes the original run, not this one.
        assert second.telemetry is None
        assert second.queue_wait >= 0.0

    def test_telemetry_flag_does_not_change_fingerprint(self):
        plain = SynthesisJob(problem_text=MAX2_SL, solver="dryadsynth")
        traced = SynthesisJob(problem_text=MAX2_SL, solver="dryadsynth",
                              telemetry=True)
        assert plain.fingerprint() == traced.fingerprint()
