"""Concurrent-client load generator for the synthesis daemon.

``python -m repro.serve.loadgen --url http://127.0.0.1:PORT`` drives a
running ``dryadsynth serve`` the way a fleet of tenants would: N client
threads submit a mixed-size problem stream (by default the demo benchmark
subset) at a configurable arrival rate, honour ``Retry-After`` on 429
backpressure, poll each job to a terminal state, and measure
**submit-to-result latency** end to end — the number an operator actually
experiences, queueing included.

The report is JSON: per-request records plus aggregate p50/p90/p99 latency
from a shared :class:`~repro.obs.metrics.QuantileSketch` — the same
bounded-memory estimator the daemon's SLO layer streams into, so the
client-side and server-side percentiles are directly comparable and an
arbitrarily long run never accumulates a raw sample list.  Each record
carries the ``trace_id`` the daemon minted, joining the client's view to
the admission audit log, ``/v1/stats`` and the span tree.  Cache-hit and
shed counts and the solved set ride along, so a caller can assert on them
(the CI serve smoke job requires zero errors and at least one cache hit).

Also importable (:func:`run_loadgen`) so the daemon tests and the CI smoke
job can drive an in-process server without spawning a second Python.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import QuantileSketch

#: Cap on a single Retry-After pause — the server's estimate is advisory and
#: the generator must keep making progress even if it advertises minutes.
MAX_RETRY_PAUSE = 5.0

#: Attempts per submission before the generator records a hard failure.
MAX_SUBMIT_ATTEMPTS = 50


def _http_json(
    url: str,
    data: Optional[bytes] = None,
    method: str = "GET",
    timeout: float = 30.0,
) -> Tuple[int, Dict, Dict]:
    """(status, headers-as-dict, parsed JSON body); errors carry bodies too."""
    request = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return (
                response.status,
                dict(response.headers),
                json.loads(response.read().decode()),
            )
    except urllib.error.HTTPError as exc:
        body = exc.read().decode()
        try:
            payload = json.loads(body)
        except json.JSONDecodeError:
            payload = {"error": body}
        return exc.code, dict(exc.headers or {}), payload


class _Client(threading.Thread):
    """One tenant: submits its share of the stream, polls to terminal."""

    def __init__(
        self,
        index: int,
        base_url: str,
        work: Sequence[Tuple[str, str, int]],
        interval: float,
        poll_interval: float,
        deadline: float,
        sketch: QuantileSketch,
        sketch_lock: threading.Lock,
    ) -> None:
        super().__init__(name=f"loadgen-client-{index}", daemon=True)
        self.index = index
        self.client_id = f"client-{index}"
        self.base_url = base_url.rstrip("/")
        self.work = work
        self.interval = interval
        self.poll_interval = poll_interval
        self.deadline = deadline
        #: Shared across all clients: completed-request latencies stream in
        #: here (bounded memory) instead of into per-client sample lists.
        self.sketch = sketch
        self.sketch_lock = sketch_lock
        self.records: List[Dict] = []

    def run(self) -> None:
        for name, text, priority in self.work:
            if self.interval > 0:
                time.sleep(self.interval)
            record = self._submit_and_wait(name, text, priority)
            if record.get("latency") is not None and record.get("state") == "done":
                with self.sketch_lock:
                    self.sketch.observe(record["latency"])
            self.records.append(record)

    def _submit_and_wait(self, name: str, text: str, priority: int) -> Dict:
        record: Dict = {
            "problem": name,
            "client": self.client_id,
            "priority": priority,
            "retries": 0,
        }
        body = json.dumps(
            {
                "problem": text,
                "name": name,
                "client": self.client_id,
                "priority": priority,
            }
        ).encode()
        start = time.monotonic()
        serve_id = None
        for _attempt in range(MAX_SUBMIT_ATTEMPTS):
            try:
                status, headers, payload = _http_json(
                    self.base_url + "/v1/jobs", data=body, method="POST"
                )
            except OSError as exc:
                record.update(state="error", error=str(exc))
                return record
            if status == 429:
                record["retries"] += 1
                retry_after = headers.get("Retry-After")
                pause = min(
                    MAX_RETRY_PAUSE,
                    float(retry_after) if retry_after else 1.0,
                )
                record.setdefault("retry_after_honored", True)
                time.sleep(pause)
                continue
            if status in (200, 202):
                serve_id = payload["id"]
                record["trace_id"] = payload.get("trace_id")
                break
            record.update(
                state="error", error=payload.get("error", f"HTTP {status}")
            )
            return record
        if serve_id is None:
            record.update(state="error",
                          error="submit attempts exhausted under 429")
            return record
        final = self._poll(serve_id)
        record["latency"] = round(time.monotonic() - start, 4)
        record["id"] = serve_id
        if final is None:
            record["state"] = "error"
            record["error"] = "deadline waiting for terminal state"
            return record
        record["state"] = final["state"]
        record["from_cache"] = bool(final.get("from_cache"))
        result = final.get("result") or {}
        record["status"] = result.get("status")
        return record

    def _poll(self, serve_id: str) -> Optional[Dict]:
        url = f"{self.base_url}/v1/jobs/{serve_id}"
        while time.monotonic() < self.deadline:
            try:
                status, _headers, payload = _http_json(url)
            except OSError:
                return None
            if status != 200:
                return None
            if payload["state"] in ("done", "shed"):
                return payload
            time.sleep(self.poll_interval)
        return None


def run_loadgen(
    url: str,
    problems: Sequence[Tuple[str, str]],
    clients: int = 8,
    rate: Optional[float] = None,
    repeat: int = 1,
    poll_interval: float = 0.05,
    deadline: float = 600.0,
    priority_spread: bool = False,
) -> Dict:
    """Drive a daemon at ``url``; returns the latency/outcome report.

    ``problems`` is ``[(name, sygus_text), ...]``; the stream is the list
    repeated ``repeat`` times (resubmissions exercise the cache fast path),
    dealt round-robin across ``clients`` threads.  ``rate`` is per-client
    submissions/second (``None`` = as fast as polling allows).  With
    ``priority_spread`` each request's priority is its index modulo 5, so
    shedding and priority ordering actually trigger under pressure.
    """
    stream: List[Tuple[str, str, int]] = []
    for round_index in range(max(1, repeat)):
        for index, (name, text) in enumerate(problems):
            priority = (index + round_index) % 5 if priority_spread else 0
            stream.append((name, text, priority))
    shares: List[List[Tuple[str, str, int]]] = [[] for _ in range(clients)]
    for index, item in enumerate(stream):
        shares[index % clients].append(item)
    interval = (1.0 / rate) if rate else 0.0
    hard_deadline = time.monotonic() + deadline
    sketch = QuantileSketch("loadgen.latency")
    sketch_lock = threading.Lock()
    workers = [
        _Client(index, url, share, interval, poll_interval, hard_deadline,
                sketch, sketch_lock)
        for index, share in enumerate(shares)
        if share
    ]
    start = time.monotonic()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    wall = time.monotonic() - start
    records = [record for worker in workers for record in worker.records]
    return _report(records, clients=len(workers), wall=wall, sketch=sketch)


def _report(records: List[Dict], clients: int, wall: float,
            sketch: QuantileSketch) -> Dict:
    latency = sketch.percentiles()
    latency["count"] = sketch.count
    latency["mean"] = round(sketch.mean, 6)
    solved = sorted(
        {
            record["problem"]
            for record in records
            if record.get("status") == "solved"
        }
    )
    report = {
        "clients": clients,
        "requests": len(records),
        "completed": sum(1 for r in records if r.get("state") == "done"),
        "shed": sum(1 for r in records if r.get("state") == "shed"),
        "errors": sum(1 for r in records if r.get("state") == "error"),
        "cache_hits": sum(1 for r in records if r.get("from_cache")),
        "rejected_retries": sum(r.get("retries", 0) for r in records),
        "wall_seconds": round(wall, 3),
        "latency": latency,
        "solved": solved,
        "records": records,
    }
    return report


def demo_problems(limit: Optional[int] = None) -> List[Tuple[str, str]]:
    """The 85-problem demo subset as (name, SyGuS text) pairs."""
    from repro.bench.suite import demo_subset
    from repro.sygus.serializer import problem_to_sygus

    pairs = []
    for benchmark in demo_subset():
        pairs.append((benchmark.name, problem_to_sygus(benchmark.problem())))
        if limit is not None and len(pairs) >= limit:
            break
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Drive a dryadsynth serve daemon with concurrent clients."
    )
    parser.add_argument("--url", required=True,
                        help="daemon base URL (http://host:port)")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument(
        "--rate", type=float, default=None,
        help="per-client submissions per second (default: unthrottled)",
    )
    parser.add_argument(
        "--limit", type=int, default=None,
        help="use only the first N demo problems",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="submit the stream N times (resubmissions hit the cache)",
    )
    parser.add_argument(
        "--priority-spread", action="store_true",
        help="vary priorities 0..4 across the stream",
    )
    parser.add_argument(
        "--deadline", type=float, default=600.0,
        help="overall budget in seconds before clients give up",
    )
    parser.add_argument("--out", default=None,
                        help="write the full JSON report to PATH")
    args = parser.parse_args(argv)
    problems = demo_problems(args.limit)
    report = run_loadgen(
        args.url,
        problems,
        clients=args.clients,
        rate=args.rate,
        repeat=args.repeat,
        deadline=args.deadline,
        priority_spread=args.priority_spread,
    )
    latency = report["latency"]
    print(
        f"loadgen: {report['completed']}/{report['requests']} done "
        f"({report['cache_hits']} cached, {report['shed']} shed, "
        f"{report['errors']} errors, {report['rejected_retries']} 429-retries) "
        f"in {report['wall_seconds']}s; "
        f"latency p50={latency['p50']}s p99={latency['p99']}s",
        file=sys.stderr,
    )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    print(json.dumps({"latency": latency, "solved_count": len(report["solved"]),
                      "completed": report["completed"],
                      "requests": report["requests"]}))
    return 0 if report["errors"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
