"""The synthesis daemon end to end: admission, backpressure, drain.

These drive a real :class:`SynthesisDaemon` (real worker processes, debug
solvers) through the real HTTP layer — the same stack ``dryadsynth serve``
runs — and assert the service contract: cache hits bypass workers, a full
queue answers 429 with ``Retry-After`` or sheds the lowest-priority job,
``/healthz`` degrades to 503, and a drain finishes every accepted job.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import ServeSettings, SynthesisDaemon, build_server
from repro.serve import daemon as daemon_module
from repro.service.cache import ResultCache


def make_stack(tmp_path, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("solver", "debug-solve")
    kwargs.setdefault("timeout", 10.0)
    daemon = SynthesisDaemon(ServeSettings(**kwargs))
    server = build_server(daemon, port=0)
    server.start()
    return daemon, server


@pytest.fixture
def stack(tmp_path):
    created = []

    def factory(**kwargs):
        daemon, server = make_stack(tmp_path, **kwargs)
        created.append((daemon, server))
        return daemon, server

    yield factory
    for daemon, server in created:
        daemon.stop(drain=False)
        server.stop()


def post_json(url, payload):
    request = urllib.request.Request(
        url + "/v1/jobs",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, dict(response.headers), json.loads(
                response.read().decode()
            )
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers or {}), json.loads(
            exc.read().decode()
        )


def get_json(url, path):
    try:
        with urllib.request.urlopen(url + path, timeout=10.0) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def latency_count(url):
    """The ``serve.latency_seconds`` histogram's count on ``/metrics``.

    Without a recorder the daemon counts into the process-wide throwaway
    registry, so tests compare it before and after their own requests.
    """
    with urllib.request.urlopen(url + "/metrics", timeout=10.0) as response:
        body = response.read().decode()
    for line in body.splitlines():
        if line.startswith("repro_serve_latency_seconds_count "):
            return int(line.split()[1])
    return 0


def wait_terminal(url, serve_id, deadline=30.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        status, view = get_json(url, f"/v1/jobs/{serve_id}")
        assert status == 200
        if view["state"] in ("done", "shed"):
            return view
        time.sleep(0.02)
    raise AssertionError(f"{serve_id} never reached a terminal state")


class TestSubmitAndPoll:
    def test_json_submission_runs_to_done(self, stack):
        daemon, server = stack()
        status, _, payload = post_json(
            server.url, {"problem": "p", "name": "max2", "client": "alice"}
        )
        assert status == 202
        # The dispatcher races the response rendering: the job is accepted
        # as queued but may already be on (or past) a worker by the time
        # the view is built.
        assert payload["state"] in ("queued", "dispatched", "running", "done")
        view = wait_terminal(server.url, payload["id"])
        assert view["state"] == "done"
        assert view["result"]["status"] == "solved"
        assert view["from_cache"] is False
        assert view["latency"] >= 0

    def test_raw_sygus_body_with_query_params(self, stack):
        daemon, server = stack()
        request = urllib.request.Request(
            server.url + "/v1/jobs?client=bob&name=inv1&priority=2",
            data=b"(set-logic LIA)\n(check-synth)\n",
            headers={"Content-Type": "text/plain"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10.0) as response:
            payload = json.loads(response.read().decode())
        assert payload["client"] == "bob"
        assert payload["name"] == "inv1"
        assert payload["priority"] == 2
        wait_terminal(server.url, payload["id"])

    def test_malformed_submission_is_400(self, stack):
        daemon, server = stack()
        status, _, payload = post_json(server.url, {"name": "no-problem"})
        assert status == 400
        assert "problem" in payload["error"]
        assert daemon.accepted == 0

    def test_unknown_job_is_404(self, stack):
        daemon, server = stack()
        status, payload = get_json(server.url, "/v1/jobs/sv-999")
        assert status == 404

    def test_job_view_can_inline_events(self, stack):
        daemon, server = stack()
        _, _, payload = post_json(server.url, {"problem": "p"})
        wait_terminal(server.url, payload["id"])
        _, view = get_json(server.url, f"/v1/jobs/{payload['id']}?events=1")
        states = [event["state"] for event in view["events"]]
        assert states == ["queued", "dispatched", "running", "done"]


class TestCacheAdmission:
    def test_cache_hit_completes_without_a_worker(self, stack, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        daemon, server = stack(cache=cache)
        _, _, first = post_json(server.url, {"problem": "p", "name": "n"})
        wait_terminal(server.url, first["id"])
        dispatched_before = daemon.pool.pool_stats()["jobs_dispatched"]

        status, _, second = post_json(server.url, {"problem": "p", "name": "n"})
        assert status == 200  # immediate, not 202-queued
        assert second["state"] == "done"
        assert second["from_cache"] is True
        assert second["result"]["status"] == "solved"
        # The fast path never touched the pool.
        assert daemon.pool.pool_stats()["jobs_dispatched"] == dispatched_before
        assert daemon.cache_admissions == 1

    def test_one_lookup_per_request(self, stack, tmp_path):
        # Admission is the only lookup: the pool must not count the miss
        # a second time before running the job.
        cache = ResultCache(tmp_path / "cache")
        daemon, server = stack(cache=cache)
        _, _, first = post_json(server.url, {"problem": "p", "name": "n"})
        wait_terminal(server.url, first["id"])
        _, _, second = post_json(server.url, {"problem": "p", "name": "n"})
        assert second["from_cache"] is True
        assert (cache.misses, cache.hits) == (1, 1)

    def test_different_problems_miss(self, stack, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        daemon, server = stack(cache=cache)
        _, _, first = post_json(server.url, {"problem": "p1"})
        wait_terminal(server.url, first["id"])
        status, _, second = post_json(server.url, {"problem": "p2"})
        assert status == 202
        view = wait_terminal(server.url, second["id"])
        assert view["from_cache"] is False


class TestBackpressure:
    def test_full_queue_answers_429_with_retry_after(self, stack):
        daemon, server = stack(workers=1, solver="debug-sleep@0.5",
                               max_queue=2)
        accepted = []
        rejection = None
        for index in range(5):
            status, headers, payload = post_json(
                server.url, {"problem": f"p{index}"}
            )
            if status == 202:
                accepted.append(payload["id"])
            elif status == 429:
                rejection = (headers, payload)
        assert rejection is not None
        headers, payload = rejection
        assert int(headers["Retry-After"]) >= 1
        assert "queue full" in payload["error"]
        assert daemon.rejected >= 1
        for serve_id in accepted:
            assert wait_terminal(server.url, serve_id)["state"] == "done"

    def test_higher_priority_sheds_lowest(self, stack):
        daemon, server = stack(workers=1, solver="debug-sleep@0.5",
                               max_queue=2)
        ids = []
        for index in range(4):
            status, _, payload = post_json(
                server.url, {"problem": f"p{index}", "priority": 0}
            )
            if status == 202:
                ids.append(payload["id"])
        status, _, vip = post_json(
            server.url, {"problem": "vip", "priority": 9}
        )
        assert status == 202
        assert vip["displaced"] in ids
        shed_view = wait_terminal(server.url, vip["displaced"])
        assert shed_view["state"] == "shed"
        assert wait_terminal(server.url, vip["id"])["state"] == "done"
        assert daemon.shed == 1

    def test_equal_priority_cannot_shed(self, stack):
        daemon, server = stack(workers=1, solver="debug-sleep@0.5",
                               max_queue=1)
        statuses = [
            post_json(server.url, {"problem": f"p{i}", "priority": 5})[0]
            for i in range(4)
        ]
        assert 429 in statuses
        assert daemon.shed == 0


class TestHealth:
    def test_ok_when_idle(self, stack):
        daemon, server = stack()
        status, payload = get_json(server.url, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["state"] == "running"

    def test_ok_health_reports_untripped_conditions(self, stack):
        daemon, server = stack()
        _, payload = get_json(server.url, "/healthz")
        conditions = payload["conditions"]
        assert set(conditions) >= {"dead_workers", "queue_saturated",
                                   "draining"}
        assert not any(c["tripped"] for c in conditions.values())

    def test_saturated_queue_degrades_to_503(self, stack):
        daemon, server = stack(workers=1, solver="debug-sleep@0.5",
                               max_queue=1)
        for index in range(3):
            post_json(server.url, {"problem": f"p{index}"})
        status, payload = get_json(server.url, "/healthz")
        assert status == 503
        assert payload["status"] == "degraded"
        assert any("saturated" in reason for reason in payload["reasons"])
        # Machine-readable: the tripped condition names itself and carries
        # the numbers an alert needs, no string parsing.
        condition = payload["conditions"]["queue_saturated"]
        assert condition["tripped"] is True
        assert condition["queued"] >= condition["max_queue"]
        assert payload["conditions"]["draining"]["tripped"] is False

    def test_draining_is_degraded(self, stack):
        daemon, server = stack()
        daemon.request_drain()
        status, payload = get_json(server.url, "/healthz")
        assert status == 503
        assert any("not admitting" in r for r in payload["reasons"])
        condition = payload["conditions"]["draining"]
        assert condition["tripped"] is True
        assert condition["state"] in ("draining", "stopped")


class TestEventStream:
    def test_stream_delivers_lifecycle_and_closes(self, stack):
        daemon, server = stack()
        _, _, payload = post_json(server.url, {"problem": "p"})
        with urllib.request.urlopen(
            server.url + f"/v1/jobs/{payload['id']}/events", timeout=15.0
        ) as response:
            assert response.status == 200
            events = [
                json.loads(line)
                for line in response.read().decode().splitlines()
            ]
        events = [e for e in events if not e.get("keepalive")]
        assert [e["state"] for e in events] == [
            "queued", "dispatched", "running", "done"
        ]
        assert [e["seq"] for e in events] == [0, 1, 2, 3]

    def test_since_resumes_after_seq(self, stack):
        daemon, server = stack()
        _, _, payload = post_json(server.url, {"problem": "p"})
        wait_terminal(server.url, payload["id"])
        with urllib.request.urlopen(
            server.url + f"/v1/jobs/{payload['id']}/events?since=1",
            timeout=15.0,
        ) as response:
            events = [
                json.loads(line)
                for line in response.read().decode().splitlines()
                if not json.loads(line).get("keepalive")
            ]
        assert [e["seq"] for e in events] == [2, 3]

    def test_stream_for_unknown_job_is_404(self, stack):
        daemon, server = stack()
        status, _ = get_json(server.url, "/v1/jobs/sv-404/events")
        assert status == 404


class TestDrain:
    def test_drain_finishes_accepted_jobs_and_persists(self, stack, tmp_path):
        results_path = tmp_path / "results.jsonl"
        daemon, server = stack(workers=1, solver="debug-sleep@0.2",
                               max_queue=10, results_out=str(results_path))
        ids = []
        for index in range(4):
            status, _, payload = post_json(
                server.url, {"problem": f"p{index}"}
            )
            assert status == 202
            ids.append(payload["id"])
        daemon.request_drain()
        assert daemon.wait_stopped(timeout=30.0)
        for serve_id in ids:
            assert daemon.job_view(serve_id)["state"] == "done"
        with open(results_path) as handle:
            persisted = [json.loads(line) for line in handle]
        assert sorted(r["id"] for r in persisted) == sorted(ids)
        assert all(r["state"] == "done" for r in persisted)

    def test_submission_during_drain_is_503(self, stack):
        daemon, server = stack()
        daemon.request_drain()
        status, _, payload = post_json(server.url, {"problem": "p"})
        assert status == 503
        assert "draining" in payload["error"] or "stopped" in payload["error"]

    def test_drain_is_idempotent(self, stack):
        daemon, server = stack()
        daemon.request_drain()
        daemon.request_drain()
        assert daemon.wait_stopped(timeout=30.0)


class TestStats:
    def test_stats_shape(self, stack):
        daemon, server = stack()
        counted = latency_count(server.url)
        _, _, payload = post_json(
            server.url, {"problem": "p", "client": "alice"}
        )
        wait_terminal(server.url, payload["id"])
        status, stats = get_json(server.url, "/v1/stats")
        assert status == 200
        assert stats["accepted"] == 1
        assert stats["completed"] == 1
        assert stats["state"] == "running"
        assert stats["pool"]["workers"] == 2
        assert "jobs_dispatched" in stats["pool"]
        # The completion is counted once in the latency histogram.
        assert latency_count(server.url) == counted + 1
        assert "hit_rate" in stats["memo"]
        recent = stats["recent"]
        assert len(recent) == 1
        assert recent[0]["client"] == "alice"
        assert recent[0]["trace_id"]

    def test_warm_workers_reused_across_jobs(self, stack):
        daemon, server = stack(workers=1)
        for index in range(5):
            _, _, payload = post_json(server.url, {"problem": f"p{index}"})
            wait_terminal(server.url, payload["id"])
        pool_stats = daemon.pool.pool_stats()
        assert pool_stats["jobs_dispatched"] == 5
        # One warm worker served all five jobs — no per-job respawn.
        assert pool_stats["workers_spawned"] == 1


class TestMemoryAccounting:
    """Tentpole: RSS visibility and the leak-watch health condition."""

    def test_stats_carry_memory_block(self, stack):
        daemon, server = stack()
        _, _, view = post_json(server.url, {"problem": "p"})
        wait_terminal(server.url, view["id"])
        status, stats = get_json(server.url, "/v1/stats")
        assert status == 200
        memory = stats["memory"]
        assert memory["daemon_rss_bytes"] > 1024 * 1024
        # ru_maxrss updates on kernel schedule, so it may trail the live
        # /proc reading by a page or two — only its magnitude is asserted.
        assert memory["daemon_peak_rss_bytes"] > 1024 * 1024
        assert memory["max_rss_mb"] is None
        # One completed request cannot fill the leak ring.
        assert memory["leak_slope_bytes_per_request"] is None
        assert memory["leak_window"] == daemon_module.LEAK_WINDOW
        assert memory["leak_samples"] <= 1

    def test_max_rss_mb_threads_through_to_pool(self, stack):
        daemon, server = stack(max_rss_mb=512)
        _, stats = get_json(server.url, "/v1/stats")
        assert stats["memory"]["max_rss_mb"] == 512
        assert daemon.pool.max_rss_mb == 512

    def test_leak_slope_none_until_ring_full(self, stack, monkeypatch):
        monkeypatch.setattr(daemon_module, "LEAK_WINDOW", 4)
        daemon, server = stack()
        base = 100 * 1024 * 1024
        for request_number in range(3):
            daemon._rss_samples.append((request_number, base))
        assert daemon._leak_slope() is None
        daemon._rss_samples.append((3, base))
        assert daemon._leak_slope() == 0.0

    def test_flat_rss_does_not_trip(self, stack, monkeypatch):
        monkeypatch.setattr(daemon_module, "LEAK_WINDOW", 4)
        daemon, server = stack()
        for request_number in range(4):
            daemon._rss_samples.append((request_number, 100 * 1024 * 1024))
        status, payload = get_json(server.url, "/healthz")
        assert status == 200
        condition = payload["conditions"]["rss_leak"]
        assert condition["tripped"] is False
        assert condition["slope_bytes_per_request"] == 0.0

    def test_growing_rss_degrades_health(self, stack, monkeypatch):
        monkeypatch.setattr(daemon_module, "LEAK_WINDOW", 4)
        monkeypatch.setattr(daemon_module, "LEAK_SLOPE_MB", 8.0)
        daemon, server = stack()
        base = 100 * 1024 * 1024
        for request_number in range(4):
            # +16 MB per completed request: double the 8 MB/request limit.
            daemon._rss_samples.append(
                (request_number, base + request_number * 16 * 1024 * 1024)
            )
        status, payload = get_json(server.url, "/healthz")
        assert status == 503
        condition = payload["conditions"]["rss_leak"]
        assert condition["tripped"] is True
        assert condition["slope_bytes_per_request"] > 8 * 1024 * 1024
        assert condition["window"] == 4
        assert any("rss leak" in reason for reason in payload["reasons"])
        # The leak slope also shows in the /v1/stats memory block.
        _, stats = get_json(server.url, "/v1/stats")
        assert stats["memory"]["leak_slope_bytes_per_request"] > 0

    def test_spike_protection_window_resets(self, stack, monkeypatch):
        # A deque(maxlen=window) forgets the pre-spike baseline: only the
        # last `window` requests can trip the condition.
        monkeypatch.setattr(daemon_module, "LEAK_WINDOW", 4)
        daemon, server = stack()
        for request_number in range(8):
            rss = 100 * 1024 * 1024 + (64 * 1024 * 1024
                                       if request_number == 3 else 0)
            daemon._rss_samples.append((request_number, rss))
        assert daemon._leak_slope() == 0.0
