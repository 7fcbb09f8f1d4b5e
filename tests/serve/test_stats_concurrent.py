"""Concurrent submitters and scrapes against a daemon under load.

``/metrics`` and ``/v1/stats`` are read paths that race the dispatcher and
pool threads mutating the metrics registry, the pool's job view and the
recent ring.  These tests submit from several client threads while others
hammer both endpoints, asserting every response parses (no torn reads, no
500s) and every completion is counted once, and exercise the retried-scrape
path ``_render_metrics`` takes when a dict mutates mid-dump.
"""

import threading
import urllib.request

import pytest

from repro.obs.live import TelemetryServer

from tests.serve.test_daemon import (  # noqa: F401
    get_json,
    latency_count,
    post_json,
    stack,
    wait_terminal,
)


class TestConcurrentScrapes:
    def test_scrapes_never_tear_while_jobs_flow(self, stack):  # noqa: F811
        daemon, server = stack(workers=2, solver="debug-sleep@0.05",
                               max_queue=32)
        counted = latency_count(server.url)
        errors = []
        stop = threading.Event()

        def scrape_stats():
            while not stop.is_set():
                try:
                    status, payload = get_json(server.url, "/v1/stats")
                    assert status == 200
                    # Torn reads would show up as inconsistent JSON or a
                    # missing always-present block.
                    for block in ("pool", "memory", "recent"):
                        assert block in payload, block
                    assert payload["completed"] <= payload["accepted"]
                except Exception as exc:  # noqa: BLE001 - collected below
                    errors.append(exc)
                    return

        def scrape_metrics():
            while not stop.is_set():
                try:
                    with urllib.request.urlopen(
                        server.url + "/metrics", timeout=10.0
                    ) as response:
                        assert response.status == 200
                        body = response.read().decode()
                    for line in body.splitlines():
                        assert line.startswith("#") or " " in line
                except Exception as exc:  # noqa: BLE001 - collected below
                    errors.append(exc)
                    return

        views = []

        def submit(client):
            # Closed loop: each client waits for a reply before its next job.
            try:
                for index in range(3):
                    status, _, payload = post_json(
                        server.url,
                        {"problem": f"{client}-{index}", "client": client},
                    )
                    assert status == 202, payload
                    views.append(wait_terminal(server.url, payload["id"]))
            except Exception as exc:  # noqa: BLE001 - collected below
                errors.append(exc)

        scrapers = [threading.Thread(target=scrape_stats) for _ in range(2)]
        scrapers += [threading.Thread(target=scrape_metrics) for _ in range(2)]
        clients = [threading.Thread(target=submit, args=(f"c{k}",))
                   for k in range(4)]
        for thread in scrapers + clients:
            thread.start()
        try:
            for thread in clients:
                thread.join(timeout=60.0)
        finally:
            stop.set()
            for thread in scrapers:
                thread.join(timeout=10.0)
        assert not errors, errors
        assert len(views) == 12
        assert {view["state"] for view in views} == {"done"}
        # The scraped surfaces saw the completed work, each job once.
        _, stats = get_json(server.url, "/v1/stats")
        assert stats["accepted"] == stats["completed"] == 12
        assert latency_count(server.url) == counted + 12

    def test_stats_blocks_consistent_after_load(self, stack):  # noqa: F811
        daemon, server = stack(workers=2)
        counted = latency_count(server.url)
        for index in range(4):
            _, _, payload = post_json(
                server.url, {"problem": f"q{index}", "client": "alice"}
            )
            wait_terminal(server.url, payload["id"])
        _, stats = get_json(server.url, "/v1/stats")
        assert stats["completed"] == 4
        assert latency_count(server.url) == counted + 4
        assert len(stats["recent"]) == 4
        assert {entry["state"] for entry in stats["recent"]} == {"done"}
        assert {entry["client"] for entry in stats["recent"]} == {"alice"}


class TestRetriedScrape:
    def test_render_metrics_retries_runtime_error(self):
        calls = {"n": 0}

        def flaky_metrics():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("dictionary changed size during iteration")
            return "# ok\nrepro_up 1\n"

        server = TelemetryServer(port=0, metrics_fn=flaky_metrics)
        server.start()
        try:
            with urllib.request.urlopen(
                server.url + "/metrics", timeout=10.0
            ) as response:
                body = response.read().decode()
            assert "repro_up 1" in body
            assert calls["n"] == 3
        finally:
            server.stop()

    def test_render_metrics_gives_up_after_three(self):
        def always_flaky():
            raise RuntimeError("dictionary changed size during iteration")

        server = TelemetryServer(port=0, metrics_fn=always_flaky)
        server.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url + "/metrics", timeout=10.0)
            assert excinfo.value.code == 500
        finally:
            server.stop()
