"""serve-cache: the synthesis daemon driven over its ``/v1`` HTTP API.

Each cycle starts ``dryadsynth serve --jobs 1 --timeout 2`` with a fresh
``--cache-dir`` and sends the suite-2s problems twice through two
closed-loop clients (each waits for its reply before sending the next
request, so at most two connections are open).  Round one misses the
result cache and solves every problem on the single warm worker; round two
starts after round one has finished, so every request hits the cache.

A client does not poll: it reads ``GET /v1/jobs/<id>/events``, which
streams until the terminal event, and only then fetches the job record for
the answer.  Latency is from sending the submission to reading the
terminal event.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import stats
from perfbench.passes import (MIN_PASSES, BenchError, Settings, another_fits,
                              peak_rss_mb)
from perfbench.workloads import seeded_order

SERVE_ARGS = ("--jobs", "1", "--timeout", "2")
CLIENTS = 2
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
REQUEST_TIMEOUT = 60.0


class Daemon:
    """One ``dryadsynth serve`` subprocess; set-up time is start to URL."""

    def __init__(self, settings: Settings, cache_dir: str, log_path: str) -> None:
        self.settings = settings
        self.cache_dir = cache_dir
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""
        self.setup = 0.0

    def __enter__(self) -> "Daemon":
        began = time.monotonic()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", *SERVE_ARGS,
                 "--cache-dir", self.cache_dir],
                stdout=subprocess.PIPE, stderr=log, cwd=self.settings.root,
                env=self.settings.env, text=True,
            )
        try:
            self.url = self._read_url(began + START_TIMEOUT)
        except BaseException:
            self._stop()
            raise
        self.setup = time.monotonic() - began
        return self

    def _read_url(self, deadline: float) -> str:
        stream = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [],
                                        max(0.0, deadline - time.monotonic()))
            if not ready:
                break
            line = stream.readline()
            if not line:
                raise BenchError(f"serve exited before printing its URL "
                                 f"(see {self.log_path})")
            if line.startswith("SERVE_URL="):
                return line.strip().split("=", 1)[1]
        raise BenchError(f"serve printed no URL within {START_TIMEOUT:g} s")

    def _stop(self) -> None:
        proc = self.proc
        if proc is None or proc.poll() is not None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def __exit__(self, *exc) -> None:
        self._stop()
        if self.proc is not None and self.proc.stdout is not None:
            self.proc.stdout.close()


def _http(url: str, data: Optional[bytes] = None) -> Tuple[int, Dict]:
    request = urllib.request.Request(
        url, data=data, method="POST" if data else "GET",
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT) as reply:
            return reply.status, json.loads(reply.read().decode())
    except urllib.error.HTTPError as exc:
        with exc:
            body = exc.read().decode(errors="replace")
        return exc.code, {"error": body[:200]}


def _wait_terminal(base: str, serve_id: str) -> Dict:
    """Read the job's event stream up to its terminal event."""
    url = f"{base}/v1/jobs/{serve_id}/events"
    with urllib.request.urlopen(url, timeout=REQUEST_TIMEOUT) as stream:
        for line in stream:
            event = json.loads(line)
            if event.get("state") in ("done", "shed"):
                return event
    raise BenchError(f"event stream of {serve_id} ended before a terminal state")


def _request(base: str, name: str, text: str, client: str) -> Dict:
    record: Dict = {"name": name, "client": client}
    body = json.dumps({"problem": text, "name": name, "client": client}).encode()
    began = time.perf_counter()
    try:
        code, view = _http(base + "/v1/jobs", body)
        if code == 202:
            _wait_terminal(base, view["id"])
            record["latency"] = time.perf_counter() - began
            code, view = _http(f"{base}/v1/jobs/{view['id']}")
        else:
            record["latency"] = time.perf_counter() - began
        if code not in (200, 202):
            # 429 (refused), 503 (draining) and 400 all count as errors.
            record.update(outcome="error", error=f"HTTP {code}: {view.get('error')}")
            return record
    except (OSError, http.client.HTTPException, ValueError, KeyError,
            BenchError) as exc:
        record.update(outcome="error", error=f"{type(exc).__name__}: {exc}")
        return record
    result = view.get("result") or {}
    status = result.get("status")
    record.update(
        from_cache=bool(view.get("from_cache")),
        queue_wait=view.get("queue_wait") or 0.0,
        pool_queue_wait=result.get("queue_wait") or 0.0,
        wall_time=result.get("wall_time") or 0.0,
        solution=result.get("solution_text"),
        size=result.get("solution_size"),
        outcome=(
            "error" if view.get("state") == "shed"
            else status if status in ("solved", "timeout", "unsolved")
            else "error"
        ),
    )
    if record["outcome"] == "error":
        record["error"] = result.get("error") or status or view.get("state")
    return record


def _round(base: str, work: Sequence[Tuple[str, str]]) -> List[Dict]:
    """Deal ``work`` to the closed-loop clients; returns every record."""
    shares = [list(work[i::CLIENTS]) for i in range(CLIENTS)]
    results: List[List[Dict]] = [[] for _ in shares]

    def client(index: int) -> None:
        for name, text in shares[index]:
            results[index].append(_request(base, name, text, f"client-{index}"))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [record for share in results for record in share]


def run_cycles(settings: Settings, texts: Dict[str, str], scratch: str,
               check) -> List[Dict]:
    """Daemon cycles until the run's time is spent (at least two).

    Unlike the pass workloads there are no extra set-up-only daemons: a
    daemon's drain and stop take about a second, which extra starts would
    take from the cycles, and each cycle's start is a set-up sample anyway.
    """
    cycles: List[Dict] = []
    started = time.monotonic()
    longest = 0.0
    while True:
        index = len(cycles)
        began = time.monotonic()
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
        log_path = os.path.join(scratch, f"serve-{index}.log")
        with Daemon(settings, cache_dir, log_path) as daemon:
            first = time.perf_counter()
            rounds = []
            for salt in ("miss", "hit"):
                order = seeded_order(sorted(texts), settings.seed, index, salt)
                rounds.append(_round(daemon.url, [(n, texts[n]) for n in order]))
            wall = time.perf_counter() - first
            code, daemon_stats = _http(daemon.url + "/v1/stats")
            if code != 200:
                raise BenchError(f"GET /v1/stats answered {code}")
        shutil.rmtree(cache_dir, ignore_errors=True)
        cycle = {"index": index, "setup": daemon.setup, "wall": wall,
                 "misses": rounds[0], "hits": rounds[1], "stats": daemon_stats}
        check(cycle)
        cycles.append(cycle)
        longest = max(longest, time.monotonic() - began)
        if not another_fits(len(cycles), MIN_PASSES, started, longest,
                            settings.seconds):
            return cycles


def end_to_end(cycles: Sequence[Dict]) -> Dict[str, float]:
    # Latency is taken over every miss of the run, not per problem at its
    # best: a miss waits for whatever the other client's request is running
    # on the single worker, so a per-problem best would pick the luckiest
    # pairing of the seeded orders.
    misses = [r["latency"] * 1000.0 for c in cycles for r in c["misses"]
              if "latency" in r]
    return {
        "solved": stats.median([
            len({r["name"] for r in c["misses"] + c["hits"]
                 if r["outcome"] == "solved"})
            for c in cycles
        ]),
        "pass_s": min(c["wall"] for c in cycles),
        "latency_ms_p50": stats.percentile(misses, 0.50),
        "latency_ms_p90": stats.percentile(misses, 0.90),
        "setup_s": stats.median([c["setup"] for c in cycles]),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(cycles: Sequence[Dict]) -> Dict[str, float]:
    misses = [r for c in cycles for r in c["misses"] if "latency" in r]
    hits = [r for c in cycles for r in c["hits"] if "latency" in r]
    solved = [r for r in misses if r["outcome"] == "solved"]
    return {
        "answer.size_p50": stats.median([r["size"] for r in solved]),
        "pool.queue_wait_ms_p50": stats.percentile(
            [r["pool_queue_wait"] * 1000.0 for r in misses], 0.5),
        # What a miss costs beyond the worker's own solve: HTTP, admission,
        # scheduling, dispatch to the worker and the event stream.
        "pool.dispatch_ms_p50": stats.percentile(
            [(r["latency"] - r["wall_time"]) * 1000.0 for r in misses], 0.5),
        "serve.queue_wait_ms_p50": stats.percentile(
            [r["queue_wait"] * 1000.0 for r in misses], 0.5),
        "cache.hit_ratio": stats.median(
            [c["stats"].get("cache", {}).get("hit_rate", 0.0) for c in cycles]),
        "cache.hit_latency_ms_p50": stats.percentile(
            [r["latency"] * 1000.0 for r in hits], 0.5),
        "serve.refused": float(sum(
            c["stats"].get("rejected", 0) + c["stats"].get("shed", 0)
            for c in cycles)),
        "check.off_grammar": stats.median([
            sum(not r.get("in_grammar", True) for r in c["misses"]
                if r["outcome"] == "solved")
            for c in cycles
        ]),
    }
