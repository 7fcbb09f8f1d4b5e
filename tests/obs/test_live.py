"""Live telemetry HTTP endpoint (repro.obs.live)."""

import http.client
import json
import re
import socket
import urllib.error
import urllib.request

import pytest

from repro.obs.live import (
    MAX_BODY_BYTES,
    PROMETHEUS_CONTENT_TYPE,
    TelemetryServer,
)


def get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=5.0) as response:
        return response.status, response.headers, response.read().decode()


def post(server, path, data, content_type="application/json"):
    request = urllib.request.Request(
        server.url + path,
        data=data,
        headers={"Content-Type": content_type},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=5.0) as response:
        return response.status, response.headers, response.read().decode()


def raw_post(server, content_length):
    """POST ``/v1/echo`` declaring ``content_length`` but sending no body.

    Returns the reply's status and JSON body, and whether the server then
    closed the connection.
    """
    with socket.create_connection((server.host, server.port),
                                  timeout=5.0) as sock:
        sock.sendall(
            f"POST /v1/echo HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {content_length}\r\n\r\n".encode()
        )
        reply = http.client.HTTPResponse(sock)
        reply.begin()
        payload = json.loads(reply.read())
        sock.settimeout(1.0)
        try:
            closed = sock.recv(1) == b""
        except TimeoutError:
            closed = False
    return reply.status, payload, closed


def add_echo_route(server, seen):
    def handler(request, body):
        seen.append(body)
        TelemetryServer.reply_json(request, 201, {"ok": True})

    server.add_route("POST", "/v1/echo", handler)


class TestTelemetryServer:
    def test_ephemeral_port_resolved(self):
        with TelemetryServer(port=0) as server:
            assert server.port != 0
            assert server.url == f"http://127.0.0.1:{server.port}"

    def test_start_returns_bound_url(self):
        server = TelemetryServer(port=0)
        try:
            url = server.start()
        finally:
            server.stop()
        assert url == server.url
        assert url.startswith("http://127.0.0.1:")
        assert not url.endswith(":0")

    def test_metrics_endpoint(self):
        text = "# TYPE repro_x counter\nrepro_x_total 3\n"
        with TelemetryServer(metrics_fn=lambda: text) as server:
            status, headers, body = get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert body == text

    def test_metrics_render_retried_on_runtime_error(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise RuntimeError("dictionary changed size during iteration")
            return "repro_ok 1\n"

        with TelemetryServer(metrics_fn=flaky) as server:
            status, _, body = get(server, "/metrics")
        assert status == 200
        assert body == "repro_ok 1\n"
        assert len(calls) == 2

    def test_healthz_with_extra(self):
        with TelemetryServer(
            health_extra=lambda: {"workers_alive": 4}
        ) as server:
            status, _, body = get(server, "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["workers_alive"] == 4
        assert payload["uptime_seconds"] >= 0
        assert payload["pid"]

    def test_healthz_degraded_is_503(self):
        """A degraded provider turns /healthz into a load-balancer signal."""
        with TelemetryServer(
            health_extra=lambda: {"status": "degraded",
                                  "reasons": ["workers dead: 2"]}
        ) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(server, "/healthz")
            assert excinfo.value.code == 503
            payload = json.loads(excinfo.value.read().decode())
        assert payload["status"] == "degraded"
        assert payload["reasons"] == ["workers dead: 2"]

    def test_healthz_provider_crash_degrades_with_503(self):
        def broken():
            raise OSError("pool is gone")

        with TelemetryServer(health_extra=broken) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(server, "/healthz")
            assert excinfo.value.code == 503
            payload = json.loads(excinfo.value.read().decode())
            assert payload["status"] == "degraded"
            assert "pool is gone" in payload["error"]
            # Machine-readable condition for the crash, alongside reasons.
            condition = payload["conditions"]["health_provider_error"]
            assert condition["tripped"] is True
            assert "pool is gone" in condition["error"]
            # The server must survive a degraded probe.
            status, _, _ = get(server, "/metrics")
            assert status == 200

    def test_jobs_endpoint_counts_states(self):
        jobs = [
            {"job_id": "job-1", "state": "running"},
            {"job_id": "job-2", "state": "running"},
            {"job_id": "job-3", "state": "done"},
        ]
        with TelemetryServer(jobs_fn=lambda: jobs) as server:
            _, _, body = get(server, "/jobs")
        payload = json.loads(body)
        assert payload["total"] == 3
        assert payload["counts"] == {"running": 2, "done": 1}
        assert payload["jobs"][0]["job_id"] == "job-1"

    def test_endpoints_without_providers_still_serve(self):
        with TelemetryServer() as server:
            assert get(server, "/metrics")[2] == ""
            assert json.loads(get(server, "/jobs")[2])["total"] == 0

    def test_unknown_path_is_404_with_directory(self):
        with TelemetryServer() as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(server, "/nope")
            assert excinfo.value.code == 404
            payload = json.loads(excinfo.value.read().decode())
        assert "/metrics" in payload["endpoints"]
        assert "/healthz" in payload["endpoints"]
        assert "/jobs" in payload["endpoints"]

    def test_provider_error_is_500_and_server_survives(self):
        def broken():
            raise ValueError("bad provider")

        with TelemetryServer(jobs_fn=broken) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(server, "/jobs")
            assert excinfo.value.code == 500
            # The server thread must survive the failed request.
            status, _, _ = get(server, "/healthz")
            assert status == 200


class TestRoutes:
    def test_exact_post_route_receives_body(self):
        seen = {}

        def handler(request, body):
            seen["body"] = body
            TelemetryServer.reply_json(request, 201, {"ok": True})

        with TelemetryServer() as server:
            server.add_route("POST", "/v1/echo", handler)
            status, _, body = post(server, "/v1/echo", b'{"x": 1}')
        assert status == 201
        assert json.loads(body) == {"ok": True}
        assert seen["body"] == b'{"x": 1}'

    def test_oversize_body_is_413_and_closes(self):
        seen = []
        with TelemetryServer() as server:
            add_echo_route(server, seen)
            status, payload, closed = raw_post(server, MAX_BODY_BYTES + 100)
        assert status == 413
        assert "limit" in payload["error"]
        assert closed, "unread body bytes would be parsed as a request"
        assert seen == []

    @pytest.mark.parametrize("declared", ["abc", "-1"])
    def test_bad_content_length_is_400_and_closes(self, declared):
        seen = []
        with TelemetryServer() as server:
            add_echo_route(server, seen)
            status, payload, closed = raw_post(server, declared)
        assert status == 400
        assert "Content-Length" in payload["error"]
        assert closed
        assert seen == []

    def test_regex_route_extracts_path_params(self):
        def handler(request, body, job_id):
            TelemetryServer.reply_json(request, 200, {"id": job_id})

        with TelemetryServer() as server:
            server.add_route(
                "GET", re.compile(r"/v1/jobs/(?P<job_id>[^/]+)$"), handler
            )
            _, _, body = get(server, "/v1/jobs/sv-42")
        assert json.loads(body) == {"id": "sv-42"}

    def test_routes_shadow_builtins_only_on_match(self):
        def handler(request, body):
            TelemetryServer.reply_json(request, 200, {"custom": True})

        with TelemetryServer(metrics_fn=lambda: "m 1\n") as server:
            server.add_route("GET", "/custom", handler)
            assert json.loads(get(server, "/custom")[2]) == {"custom": True}
            assert get(server, "/metrics")[2] == "m 1\n"

    def test_route_handler_error_is_500(self):
        def handler(request, body):
            raise RuntimeError("handler blew up")

        with TelemetryServer() as server:
            server.add_route("GET", "/boom", handler)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(server, "/boom")
            assert excinfo.value.code == 500

    def test_custom_reply_headers(self):
        def handler(request, body):
            TelemetryServer.reply_json(
                request, 429, {"error": "queue full"},
                headers={"Retry-After": "7"},
            )

        with TelemetryServer() as server:
            server.add_route("POST", "/v1/jobs", handler)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(server, "/v1/jobs", b"{}")
            assert excinfo.value.code == 429
            assert excinfo.value.headers["Retry-After"] == "7"

    def test_chunked_streaming(self):
        def handler(request, body):
            TelemetryServer.stream_chunks(
                request,
                (json.dumps({"seq": i}).encode() + b"\n" for i in range(3)),
            )

        with TelemetryServer() as server:
            server.add_route("GET", "/v1/stream", handler)
            with urllib.request.urlopen(
                server.url + "/v1/stream", timeout=5.0
            ) as response:
                assert response.status == 200
                lines = [
                    json.loads(line)
                    for line in response.read().decode().splitlines()
                ]
        assert lines == [{"seq": 0}, {"seq": 1}, {"seq": 2}]
