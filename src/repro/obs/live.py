"""Live telemetry endpoint: scrape a running batch (or daemon) over HTTP.

Stdlib-only (:mod:`http.server` on daemon threads) so the service layer
keeps its zero-dependency promise.  Three built-in endpoints:

- ``/metrics`` — the merged :class:`~repro.obs.metrics.MetricsRegistry` in
  Prometheus text exposition format (a scrape target, version 0.0.4);
- ``/healthz`` — liveness JSON (status, uptime, pid).  A provider that
  reports ``status`` other than ``"ok"`` (dead workers, queue saturation)
  turns the reply into **503**, so load balancers and orchestrators can act
  on degradation instead of parsing JSON;
- ``/jobs`` — the pool's per-job view: state (queued / running / retrying /
  done), queue wait, remaining hard deadline, assigned worker pid.

The server never *computes* anything: it renders provider callbacks
(``metrics_fn`` returning exposition text, ``jobs_fn`` returning a list of
dicts) supplied by whoever owns the run — ``dryadsynth batch
--serve-telemetry PORT`` wires them to the ambient recorder and the
:class:`~repro.service.pool.WorkerPool`, whose scheduler keeps the job
states fresh.  Handlers run on server threads while the pool mutates on its
scheduler thread; providers must therefore return snapshots (the pool's
``jobs_snapshot`` copies under its lock, and the registry render is retried
on the rare mid-mutation ``RuntimeError``).

Beyond the built-ins the server is a tiny route table: callers register
``add_route(method, pattern, handler)`` for extra endpoints (the
:mod:`repro.serve` daemon mounts its ``/v1/...`` API this way, folding the
service API and the telemetry scrape into one listener).  Handlers receive
``(request, body, **path_params)`` and reply via :meth:`TelemetryServer.
reply_json` / :meth:`reply` / :meth:`stream_chunks`.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Iterable, List, Optional, Pattern, Union

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Largest request body accepted by the built-in reader (a SyGuS problem is
#: a few KB; this is a hard stop against accidental or hostile uploads).
MAX_BODY_BYTES = 4 * 1024 * 1024


class TelemetryServer:
    """Serve ``/metrics``, ``/healthz``, ``/jobs`` and registered routes."""

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        metrics_fn: Optional[Callable[[], str]] = None,
        jobs_fn: Optional[Callable[[], List[Dict]]] = None,
        health_extra: Optional[Callable[[], Dict]] = None,
    ) -> None:
        self.metrics_fn = metrics_fn
        self.jobs_fn = jobs_fn
        self.health_extra = health_extra
        self.started_at = time.monotonic()
        self._routes: List[tuple] = []
        server = self

        class Handler(BaseHTTPRequestHandler):
            # HTTP/1.1 enables chunked transfer encoding for the streaming
            # routes; non-streaming replies always carry Content-Length.
            protocol_version = "HTTP/1.1"

            def log_message(self, *args) -> None:  # noqa: A003 - stdlib name
                pass  # scrapes must not spam the operator's stderr

            def do_GET(self) -> None:  # noqa: N802 - stdlib name
                server._handle(self, "GET")

            def do_POST(self) -> None:  # noqa: N802 - stdlib name
                server._handle(self, "POST")

            def do_DELETE(self) -> None:  # noqa: N802 - stdlib name
                server._handle(self, "DELETE")

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.host = host
        self.port = self._httpd.server_address[1]  # resolved when port was 0
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def add_route(
        self,
        method: str,
        pattern: Union[str, Pattern],
        handler: Callable,
    ) -> None:
        """Register ``handler(request, body, **params)`` for a path.

        ``pattern`` is an exact path string or a compiled regex whose named
        groups become keyword arguments.  Routes are matched in
        registration order, before the built-in endpoints.
        """
        if isinstance(pattern, str):
            pattern = re.compile(re.escape(pattern) + r"$")
        self._routes.append((method.upper(), pattern, handler))

    def start(self) -> str:
        """Serve on a daemon thread; returns the bound URL.

        The return value is the machine-readable discovery point: with
        ``port=0`` the OS picks a free port, and callers (scripts, the
        batch CLI's ``TELEMETRY_URL=`` line) need the resolved address.
        """
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self.url

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "TelemetryServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- Request handling (runs on server threads) ------------------------------

    def _handle(self, request: BaseHTTPRequestHandler, method: str) -> None:
        path = request.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            for route_method, pattern, handler in self._routes:
                if route_method != method:
                    continue
                match = pattern.match(path)
                if match is None:
                    continue
                body = None
                if method == "POST":
                    body = self._read_body(request)
                    if body is None:
                        return
                handler(request, body, **match.groupdict())
                return
            if method == "GET" and path == "/metrics":
                body = self._render_metrics().encode()
                self.reply(request, 200, PROMETHEUS_CONTENT_TYPE, body)
            elif method == "GET" and path == "/healthz":
                payload = self._health()
                code = 200 if payload.get("status") == "ok" else 503
                self.reply_json(request, code, payload)
            elif method == "GET" and path == "/jobs":
                self.reply_json(request, 200, self._jobs())
            else:
                self.reply_json(
                    request, 404,
                    {"error": "not found",
                     "endpoints": self._known_endpoints()},
                )
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-reply
        except Exception as exc:  # noqa: BLE001 - keep the server alive
            try:
                self.reply_json(
                    request, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except OSError:
                pass

    def _known_endpoints(self) -> List[str]:
        known = ["/metrics", "/healthz", "/jobs"]
        for _method, pattern, _handler in self._routes:
            known.append(pattern.pattern.replace("\\", "").rstrip("$"))
        return known

    @classmethod
    def _read_body(cls, request: BaseHTTPRequestHandler) -> Optional[bytes]:
        """The request body, or None after refusing it with a 400 or 413.

        A refused body is left unread, so the reply closes the connection:
        its bytes must not be parsed as the next request.
        """
        declared = (request.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            code, error = 400, f"bad Content-Length: {declared!r}"
        elif int(declared) > MAX_BODY_BYTES:
            code, error = 413, (f"body of {declared} bytes is over the "
                                f"{MAX_BODY_BYTES}-byte limit")
        else:
            return request.rfile.read(int(declared))
        cls.reply_json(request, code, {"error": error},
                       headers={"Connection": "close"})
        return None

    def _render_metrics(self) -> str:
        if self.metrics_fn is None:
            return ""
        # The registry may gain a metric mid-render on the pool thread; the
        # dump only reads, so a retry after the rare RuntimeError suffices.
        for attempt in range(3):
            try:
                return self.metrics_fn()
            except RuntimeError:
                if attempt == 2:
                    raise
                time.sleep(0.005)
        return ""

    def _health(self) -> Dict:
        import os

        payload: Dict = {
            "status": "ok",
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "pid": os.getpid(),
        }
        if self.health_extra is not None:
            try:
                payload.update(self.health_extra())
            except Exception as exc:  # noqa: BLE001 - health must not 500
                # Keep degraded replies machine-readable even when the
                # provider itself is the failure: name the condition the
                # same way the daemon's health() names its own.
                detail = f"{type(exc).__name__}: {exc}"
                payload["status"] = "degraded"
                payload["error"] = detail
                payload.setdefault("conditions", {})["health_provider_error"] = {
                    "tripped": True,
                    "error": detail,
                }
                payload.setdefault("reasons", []).append(
                    f"health provider raised: {detail}"
                )
        return payload

    def _jobs(self) -> Dict:
        jobs = list(self.jobs_fn()) if self.jobs_fn is not None else []
        counts: Dict[str, int] = {}
        for job in jobs:
            state = str(job.get("state", "unknown"))
            counts[state] = counts.get(state, 0) + 1
        return {"jobs": jobs, "counts": counts, "total": len(jobs)}

    # -- Reply helpers (for registered route handlers too) ----------------------

    @staticmethod
    def reply(
        request,
        code: int,
        content_type: str,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        request.send_response(code)
        request.send_header("Content-Type", content_type)
        request.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            request.send_header(name, value)
        request.end_headers()
        request.wfile.write(body)

    @classmethod
    def reply_json(
        cls,
        request,
        code: int,
        payload: Dict,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        cls.reply(request, code, "application/json", body, headers=headers)

    @staticmethod
    def stream_chunks(
        request,
        chunks: Iterable[bytes],
        content_type: str = "application/x-ndjson",
    ) -> None:
        """Stream an iterable as a chunked HTTP/1.1 response.

        Each yielded byte string is flushed as its own chunk the moment the
        iterable produces it — the transport behind ``GET
        /v1/jobs/<id>/events``.  The client sees an incremental body and a
        clean end-of-stream marker instead of a connection reset.
        """
        request.send_response(200)
        request.send_header("Content-Type", content_type)
        request.send_header("Transfer-Encoding", "chunked")
        request.end_headers()
        try:
            for chunk in chunks:
                if not chunk:
                    continue
                request.wfile.write(b"%x\r\n" % len(chunk))
                request.wfile.write(chunk)
                request.wfile.write(b"\r\n")
                request.wfile.flush()
        finally:
            try:
                request.wfile.write(b"0\r\n\r\n")
                request.wfile.flush()
            except OSError:
                pass
