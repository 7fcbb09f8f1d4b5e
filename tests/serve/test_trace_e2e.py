"""One trace id, end to end: HTTP admission → job events → worker spans.

This is the acceptance test for request-scoped tracing: a single submission's
``trace_id`` must be observable in (1) the ``queued`` admission event on the
job's event stream, (2) the ``/v1/stats`` recent-requests ring, (3) the
job view the client polls, and (4) the re-rooted span tree — ``serve.request``
→ ``serve.queue_wait`` + grafted ``worker.request`` worker tree — that
``dryadsynth explain`` renders.
"""

import json
import time
import urllib.request

import pytest

from repro import obs
from repro.obs.explain import build_explain, render_explain
from repro.serve import ServeSettings, SynthesisDaemon, build_server

from tests.serve.test_daemon import get_json, post_json, wait_terminal


@pytest.fixture
def traced_stack():
    """Daemon with telemetry on, inside a recording."""
    with obs.recording() as recorder:
        daemon = SynthesisDaemon(
            ServeSettings(workers=2, solver="debug-solve", timeout=10.0,
                          telemetry=True)
        )
        server = build_server(daemon, port=0)
        server.start()
        try:
            yield daemon, server, recorder
        finally:
            daemon.stop(drain=False)
            server.stop()


def job_events(url, serve_id):
    """The job's event stream, inlined in its view."""
    _, view = get_json(url, f"/v1/jobs/{serve_id}?events=1")
    return view["events"]


def wait_for_span(recorder, name, deadline=10.0):
    """The dispatcher thread records spans after _finish; poll briefly."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        spans = list(recorder.spans)
        if any(s.name == name for s in spans):
            return spans
        time.sleep(0.02)
    raise AssertionError(f"no span named {name} recorded")


class TestTraceEndToEnd:
    def test_trace_id_everywhere(self, traced_stack):
        daemon, server, recorder = traced_stack
        status, _, payload = post_json(
            server.url, {"problem": "p", "name": "max2", "client": "alice"}
        )
        assert status == 202
        trace_id = payload["trace_id"]
        assert trace_id and len(trace_id) == 32

        view = wait_terminal(server.url, payload["id"])
        assert view["trace_id"] == trace_id
        assert view["traceparent"].split("-")[1] == trace_id

        # (1) the admission event on the job's event stream.
        events = job_events(server.url, payload["id"])
        assert any(
            e["state"] == "queued" and e["trace_id"] == trace_id
            for e in events
        )

        # (2) /v1/stats: the recent ring carries the trace id.
        _, stats = get_json(server.url, "/v1/stats")
        assert any(e["trace_id"] == trace_id for e in stats["recent"])

        # (3)+(4) the span tree: serve.request root carrying the trace id,
        # with the worker's re-rooted tree grafted underneath.
        spans = wait_for_span(recorder, "serve.request")
        request = next(s for s in spans if s.name == "serve.request")
        assert request.attrs["trace_id"] == trace_id
        assert request.attrs["client"] == "alice"
        children = [s for s in spans if s.parent_id == request.span_id]
        child_names = {s.name for s in children}
        assert "job" in child_names  # the grafted worker telemetry root
        worker_spans = [s for s in spans if s.name == "worker.request"]
        assert worker_spans, "worker did not re-root its tree under the trace"
        assert worker_spans[0].attrs["trace_id"] == trace_id
        # The worker minted its own span id under the same trace.
        assert worker_spans[0].attrs["trace_span_id"] != request.attrs[
            "trace_span_id"
        ]

        # ... and dryadsynth explain renders the request row.
        text = render_explain(
            build_explain(list(recorder.spans), list(recorder.events),
                          recorder.truncated)
        )
        assert trace_id in text
        assert "daemon requests" in text

    def test_caller_traceparent_is_continued(self, traced_stack):
        daemon, server, recorder = traced_stack
        caller_trace = "c" * 32
        caller_span = "d" * 16
        header = f"00-{caller_trace}-{caller_span}-01"
        request = urllib.request.Request(
            server.url + "/v1/jobs",
            data=json.dumps({"problem": "p2", "client": "mesh"}).encode(),
            headers={"Content-Type": "application/json",
                     "traceparent": header},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10.0) as response:
            payload = json.loads(response.read().decode())
        assert payload["trace_id"] == caller_trace
        wait_terminal(server.url, payload["id"])
        spans = wait_for_span(recorder, "serve.request")
        request_span = next(
            s for s in spans
            if s.name == "serve.request" and s.attrs["trace_id"] == caller_trace
        )
        # The daemon's span is a child of the caller's span: same trace,
        # caller's span id as parent.
        assert request_span.attrs["trace_parent_span_id"] == caller_span

    def test_malformed_traceparent_mints_fresh(self, traced_stack):
        daemon, server, recorder = traced_stack
        request = urllib.request.Request(
            server.url + "/v1/jobs",
            data=json.dumps({"problem": "p3"}).encode(),
            headers={"Content-Type": "application/json",
                     "traceparent": "junk-header"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10.0) as response:
            payload = json.loads(response.read().decode())
        assert payload["trace_id"]
        assert len(payload["trace_id"]) == 32

    def test_queue_wait_span_recorded(self, traced_stack):
        daemon, server, recorder = traced_stack
        _, _, payload = post_json(server.url, {"problem": "q"})
        wait_terminal(server.url, payload["id"])
        spans = wait_for_span(recorder, "serve.request")
        waits = [s for s in spans if s.name == "serve.queue_wait"]
        assert waits
        assert waits[0].attrs["trace_id"] == payload["trace_id"]

    def test_cache_hit_audited_with_trace(self, tmp_path, traced_stack):
        from repro.service.cache import ResultCache

        daemon, server, recorder = traced_stack
        cached = SynthesisDaemon(
            ServeSettings(workers=1, solver="debug-solve", timeout=10.0,
                          cache=ResultCache(tmp_path / "cache"))
        )
        cached_server = build_server(cached, port=0)
        cached_server.start()
        try:
            _, _, first = post_json(cached_server.url, {"problem": "c"})
            wait_terminal(cached_server.url, first["id"])
            status, _, second = post_json(cached_server.url, {"problem": "c"})
            assert status == 200 and second["from_cache"]
            events = job_events(cached_server.url, second["id"])
            hits = [e for e in events
                    if e["state"] == "done" and e["from_cache"]]
            assert hits and hits[0]["trace_id"] == second["trace_id"]
            # A cache hit gets its own fresh trace, not the miss's.
            assert second["trace_id"] != first["trace_id"]
        finally:
            cached.stop(drain=False)
            cached_server.stop()

    def test_shed_audit_names_displacer(self):
        # Uses its own stack: needs tight queue settings.
        daemon = SynthesisDaemon(
            ServeSettings(workers=1, solver="debug-sleep@0.5",
                          timeout=10.0, max_queue=2)
        )
        server = build_server(daemon, port=0)
        server.start()
        try:
            for index in range(3):
                post_json(server.url,
                          {"problem": f"s{index}", "priority": 0})
            status, _, vip = post_json(
                server.url, {"problem": "vip", "priority": 9}
            )
            assert status == 202 and vip.get("displaced")
            events = job_events(server.url, vip["displaced"])
            sheds = [e for e in events if e["state"] == "shed"]
            assert sheds
            assert sheds[0]["displaced_by"] == vip["id"]
            assert sheds[0]["trace_id"]
        finally:
            daemon.stop(drain=False)
            server.stop()
