"""The synthesis daemon: admission, fair dispatch, and graceful drain.

:class:`SynthesisDaemon` composes the pieces PRs 1–5 built into a
long-lived multi-tenant service:

- **Cache-first admission** — every submission is fingerprinted
  (:mod:`repro.service.fingerprint`) and looked up in the shared
  :class:`~repro.service.cache.ResultCache` *before* it can queue; a hit
  completes the job at admission time without ever touching a worker, so
  resubmissions are O(one disk read).
- **Fair queueing** — admitted jobs enter per-client priority queues under
  the weighted-round-robin :class:`~repro.serve.queues.FairScheduler`; a
  dispatcher thread feeds the :class:`~repro.service.pool.WorkerPool` one
  job per free worker slot, so fairness is decided here (per client), not
  by pool FIFO order.
- **Backpressure and shedding** — when ``queued >= max_queue`` a
  submission is rejected (HTTP 429 + ``Retry-After`` derived from observed
  service rate) unless it outranks the lowest-priority queued job, in
  which case that job is shed (terminal ``shed`` state) and the newcomer
  admitted: under sustained pressure the queue keeps the highest-value
  work.
- **Warm workers** — one pool lives for the daemon's lifetime; worker
  processes are reused across jobs and clients (``/v1/stats`` reports
  spawns vs. dispatches as the reuse evidence).
- **Graceful drain** — :meth:`request_drain` (wired to ``SIGTERM`` by the
  CLI) stops admission (503), lets the dispatcher finish every accepted
  job, flushes the results journal, then closes the pool.  Zero accepted
  jobs are lost.

Thread model: HTTP handler threads call :meth:`submit`/:meth:`job_view`;
one dispatcher thread moves jobs scheduler → pool; the pool's scheduler
thread calls back :meth:`_on_pool_event`.  All daemon state is guarded by
one condition variable; callbacks never run under pool locks, so the lock
order is strictly daemon → pool.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Dict, List, Optional

from repro import obs
from repro.obs import trace
from repro.serve import protocol
from repro.serve.protocol import SubmitRequest
from repro.serve.queues import FairScheduler, QueueEntry
from repro.service.cache import ResultCache
from repro.service.jobs import JobResult, SynthesisJob
from repro.service.pool import WorkerPool

#: Daemon lifecycle.
RUNNING = "running"
DRAINING = "draining"
STOPPED = "stopped"

#: The pool's ``/jobs`` view keeps at most this many records and drops a
#: finished one after this many seconds.
LIVE_CAP = 2048
LIVE_TTL = 900.0
#: Served jobs kept for ``GET /v1/jobs/<id>``; the oldest terminal ones go
#: first once the history is over this.
HISTORY_CAP = 4096
#: Terminal jobs surfaced in the ``/v1/stats`` ``recent`` block — the
#: trace-id lookup surface for operators.
RECENT_CAP = 32


class ServeSettings:
    """Configuration for one daemon instance (CLI flags map 1:1)."""

    def __init__(
        self,
        workers: int = 2,
        solver: str = "dryadsynth",
        timeout: float = 10.0,
        max_queue: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        results_out: Optional[str] = None,
        flight_dir: Optional[str] = None,
        retries: int = 1,
        telemetry: bool = False,
        max_rss_mb: Optional[float] = None,
        leak_window: int = 16,
        leak_slope_mb: float = 8.0,
    ) -> None:
        self.workers = max(1, workers)
        self.solver = solver
        self.timeout = timeout
        #: Bound on *queued* (admitted, not yet dispatched) jobs — the
        #: backpressure threshold.  Defaults to 4 slots per worker.
        self.max_queue = max_queue if max_queue is not None else 4 * self.workers
        self.cache = cache
        self.results_out = results_out
        self.flight_dir = flight_dir
        self.retries = retries
        self.telemetry = telemetry
        #: Per-worker soft RSS budget (MiB) forwarded to the pool; a worker
        #: over budget is killed and its job completes as ``oom_budget``.
        self.max_rss_mb = max_rss_mb
        #: Leak watch: daemon RSS is sampled once per completed request into
        #: a ring of this many points; when the least-squares slope over the
        #: full ring exceeds ``leak_slope_mb`` MiB *per request*, ``/healthz``
        #: reports the ``rss_leak`` condition as tripped (degraded).
        self.leak_window = max(4, leak_window)
        self.leak_slope_mb = leak_slope_mb


class ServeJob:
    """Daemon-side record of one submission, with a watchable event log."""

    __slots__ = (
        "id", "name", "client", "solver", "priority", "labels",
        "fingerprint", "state", "result", "from_cache", "submitted_at",
        "finished_at", "events", "cond", "entry", "pool_job_id",
        "trace", "dispatched_at", "queue_wait",
    )

    def __init__(self, serve_id: str, request: SubmitRequest, solver: str,
                 fingerprint: str) -> None:
        self.id = serve_id
        self.name = request.name
        self.client = request.client
        self.solver = solver
        self.priority = request.priority
        self.labels = request.labels
        self.fingerprint = fingerprint
        self.state = protocol.QUEUED
        self.result: Optional[Dict] = None
        self.from_cache = False
        self.submitted_at = time.time()
        self.finished_at: Optional[float] = None
        self.events: List[Dict] = []
        self.cond = threading.Condition()
        self.entry: Optional[QueueEntry] = None
        self.pool_job_id: Optional[str] = None
        #: The request's distributed-trace context, minted (or adopted from
        #: the caller's ``traceparent``) at admission.
        self.trace: Optional[trace.TraceContext] = None
        self.dispatched_at: Optional[float] = None
        self.queue_wait: Optional[float] = None

    @property
    def trace_id(self) -> Optional[str]:
        return self.trace.trace_id if self.trace is not None else None

    @property
    def terminal(self) -> bool:
        return self.state in protocol.TERMINAL_STATES

    @property
    def latency(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return round(self.finished_at - self.submitted_at, 4)

    def record_event(self, state: str, **extra) -> None:
        with self.cond:
            self.state = state
            self.events.append({
                "seq": len(self.events),
                "ts": round(time.time(), 4),
                "state": state,
                **extra,
            })
            self.cond.notify_all()

    def wait_events(self, after_seq: int, timeout: float) -> List[Dict]:
        """Events with ``seq > after_seq``, blocking up to ``timeout``."""
        deadline = time.monotonic() + timeout
        with self.cond:
            while True:
                fresh = [e for e in self.events if e["seq"] > after_seq]
                if fresh or self.terminal:
                    return fresh
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self.cond.wait(remaining)

    def view(self, include_events: bool = False) -> Dict:
        with self.cond:
            payload = {
                "id": self.id,
                "name": self.name,
                "client": self.client,
                "solver": self.solver,
                "priority": self.priority,
                "state": self.state,
                "from_cache": self.from_cache,
                "fingerprint": self.fingerprint,
                "submitted_at": round(self.submitted_at, 4),
                "latency": self.latency,
                "queue_wait": self.queue_wait,
                "trace_id": self.trace_id,
                "traceparent": (
                    self.trace.traceparent() if self.trace else None
                ),
                "result": self.result,
            }
            if self.labels:
                payload["labels"] = dict(self.labels)
            if include_events:
                payload["events"] = list(self.events)
        return payload


class SubmitOutcome:
    """What admission decided: the job (if admitted) or a rejection."""

    __slots__ = ("job", "code", "error", "retry_after", "shed_job")

    def __init__(self, job=None, code=200, error=None, retry_after=None,
                 shed_job=None):
        self.job = job
        self.code = code
        self.error = error
        self.retry_after = retry_after
        self.shed_job = shed_job


class SynthesisDaemon:
    """Long-lived synthesis service over one warm worker pool."""

    def __init__(self, settings: Optional[ServeSettings] = None) -> None:
        self.settings = settings or ServeSettings()
        self.started_at = time.monotonic()
        # No ``cache=``: admission already looked the fingerprint up, so a
        # pool lookup would count every miss twice.  Results are written in
        # _on_pool_complete instead.
        self.pool = WorkerPool(
            workers=self.settings.workers,
            max_retries=self.settings.retries,
            flight_dir=self.settings.flight_dir,
            queue_size=self.settings.max_queue,
            live_cap=LIVE_CAP,
            live_ttl=LIVE_TTL,
            # The daemon re-roots each worker tree under its own
            # ``serve.request`` span in _finish; letting the pool merge too
            # would duplicate every span.
            merge_telemetry=False,
            max_rss_mb=self.settings.max_rss_mb,
        )
        #: Leak watch ring: ``(completed_count, daemon_rss_bytes)`` samples,
        #: one per finished request (see :meth:`_leak_slope`).
        self._rss_samples: deque = deque(maxlen=self.settings.leak_window)
        self._recent: deque = deque(maxlen=RECENT_CAP)
        self.scheduler: FairScheduler = FairScheduler()
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._jobs: Dict[str, ServeJob] = {}
        #: serve-id → SynthesisJob for queued-but-not-dispatched work.
        self._pending_jobs: Dict[str, SynthesisJob] = {}
        self._job_order: List[str] = []
        self._seq = 0
        self._inflight = 0
        self.state = RUNNING
        self._drained = threading.Event()
        # Admission/outcome counters (mirrored into serve.* metrics).
        self.accepted = 0
        self.completed = 0
        self.rejected = 0
        self.shed = 0
        self.cache_admissions = 0
        #: Trailing per-job service walls feeding the Retry-After estimate.
        self._recent_walls: List[float] = []
        self._results_handle = None
        self._results_lock = threading.Lock()
        if self.settings.results_out:
            self._results_handle = open(self.settings.results_out, "a")
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    # -- Admission (HTTP handler threads) ---------------------------------------

    def submit(self, request: SubmitRequest) -> SubmitOutcome:
        """Admit, cache-complete, shed-and-admit, or reject a submission."""
        if self.state != RUNNING:
            return SubmitOutcome(
                code=503, error=f"daemon is {self.state}; not admitting jobs",
                retry_after=None,
            )
        solver = request.solver or self.settings.solver
        timeout = request.timeout or self.settings.timeout
        job = SynthesisJob(
            problem_text=request.problem_text,
            solver=solver,
            timeout=timeout,
            name=request.name,
            telemetry=self.settings.telemetry,
        )
        try:
            fingerprint = job.fingerprint()
        except Exception as exc:  # noqa: BLE001 - parse errors are client errors
            return SubmitOutcome(
                code=400, error=f"unparseable problem: {exc}"
            )
        # Mint (or continue) the request's distributed-trace context and
        # ship it across the process boundary in the job params — params
        # are not part of the fingerprint, so cache identity is unchanged.
        ctx = trace.continue_or_mint(request.traceparent)
        trace.inject(job.params, ctx)
        with self._lock:
            self._seq += 1
            serve_job = ServeJob(f"sv-{self._seq}", request, solver,
                                 fingerprint)
            serve_job.trace = ctx
            self._register_locked(serve_job)

        # Cache-first admission: a hit never touches the queue or a worker.
        if self.settings.cache is not None:
            hit = self.settings.cache.get(fingerprint)
            if hit is not None:
                result = JobResult.from_json(hit.to_json())
                result.from_cache = True
                result.telemetry = None
                with self._lock:
                    self.accepted += 1
                    self.cache_admissions += 1
                serve_job.from_cache = True
                self._finish(serve_job, result)
                obs.metrics().counter("serve.cache_admissions").inc()
                return SubmitOutcome(job=serve_job, code=200)

        with self._work:
            shed_job = None
            if len(self.scheduler) >= self.settings.max_queue:
                victim = self.scheduler.shed_lowest(request.priority)
                if victim is None:
                    self.rejected += 1
                    retry_after = self._retry_after_locked()
                    obs.metrics().counter("serve.rejected").inc()
                    self._forget_locked(serve_job)
                    return SubmitOutcome(
                        code=429,
                        error="queue full and no lower-priority job to shed",
                        retry_after=retry_after,
                    )
                shed_job = victim.item
            self.accepted += 1
            serve_job.entry = self.scheduler.push(
                serve_job, client=request.client,
                priority=request.priority, weight=request.weight,
                trace_id=ctx.trace_id,
            )
            job.name = request.name
            serve_job.pool_job_id = None
            self._pending_jobs[serve_job.id] = job
            self._work.notify_all()
        obs.metrics().counter("serve.accepted").inc()
        serve_job.record_event(protocol.QUEUED, client=request.client,
                               priority=request.priority,
                               trace_id=ctx.trace_id)
        if shed_job is not None:
            self._mark_shed(shed_job, displaced_by=serve_job)
        return SubmitOutcome(job=serve_job, code=202, shed_job=shed_job)

    def _register_locked(self, serve_job: ServeJob) -> None:
        self._jobs[serve_job.id] = serve_job
        self._job_order.append(serve_job.id)
        overflow = len(self._job_order) - HISTORY_CAP
        if overflow > 0:
            kept: List[str] = []
            for job_id in self._job_order:
                job = self._jobs.get(job_id)
                if overflow > 0 and job is not None and job.terminal:
                    del self._jobs[job_id]
                    overflow -= 1
                else:
                    kept.append(job_id)
            self._job_order = kept

    def _forget_locked(self, serve_job: ServeJob) -> None:
        """Remove a never-admitted record (rejected submissions)."""
        self._jobs.pop(serve_job.id, None)
        try:
            self._job_order.remove(serve_job.id)
        except ValueError:
            pass

    def _retry_after_locked(self) -> int:
        """Seconds until a queue slot should free up, from observed rate."""
        walls = self._recent_walls[-32:]
        per_job = (sum(walls) / len(walls)) if walls else self.settings.timeout
        eta = per_job * (len(self.scheduler) + 1) / self.settings.workers
        return max(1, min(300, int(eta + 0.5)))

    def _mark_shed(self, serve_job: ServeJob, displaced_by: ServeJob) -> None:
        with self._lock:
            self.shed += 1
            self._pending_jobs.pop(serve_job.id, None)
            self._remember_locked(serve_job, status="shed",
                                  state=protocol.SHED)
        obs.metrics().counter("serve.shed").inc()
        serve_job.record_event(protocol.SHED,
                               reason="displaced by higher-priority job",
                               displaced_by=displaced_by.id,
                               trace_id=serve_job.trace_id)
        self._persist(serve_job)

    def _remember_locked(self, serve_job: ServeJob, status: str,
                         state: Optional[str] = None) -> None:
        """Append a terminal summary to the ``/v1/stats`` recent ring."""
        self._recent.append({
            "id": serve_job.id,
            "trace_id": serve_job.trace_id,
            "client": serve_job.client,
            "problem": serve_job.name,
            "priority": serve_job.priority,
            "state": state or serve_job.state,
            "status": status,
            "latency": serve_job.latency,
            "queue_wait": serve_job.queue_wait,
            "from_cache": serve_job.from_cache,
        })

    # -- Dispatch (dispatcher thread) -------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._work:
                while True:
                    if self.state == STOPPED:
                        return
                    draining = self.state == DRAINING
                    have_work = (len(self.scheduler) > 0
                                 and self._inflight < self.settings.workers)
                    if have_work:
                        break
                    if draining and not self.scheduler and self._inflight == 0:
                        self._finish_drain_locked()
                        return
                    self._work.wait(timeout=0.25)
                entry = self.scheduler.pop()
                assert entry is not None
                serve_job: ServeJob = entry.item
                job = self._pending_jobs.pop(serve_job.id, None)
                if job is None:
                    continue  # shed between pop attempts
                self._inflight += 1
            serve_job.dispatched_at = time.time()
            serve_job.queue_wait = round(
                serve_job.dispatched_at - serve_job.submitted_at, 4
            )
            serve_job.record_event(protocol.DISPATCHED,
                                   queue_wait=serve_job.queue_wait,
                                   trace_id=serve_job.trace_id)
            self.pool.submit(
                job,
                on_complete=lambda result, sj=serve_job: self._on_pool_complete(
                    sj, result
                ),
                on_assign=lambda pj, sj=serve_job: sj.record_event(
                    protocol.RUNNING
                ),
            )
            with self._lock:
                serve_job.pool_job_id = job.job_id

    def _on_pool_complete(self, serve_job: ServeJob, result: JobResult) -> None:
        # Cache before the job reads as done, so a resubmission after the
        # terminal event hits.  ``put`` skips non-terminal statuses.
        if self.settings.cache is not None:
            self.settings.cache.put(serve_job.fingerprint, result)
        # Finish (and persist) BEFORE releasing the in-flight slot: the
        # drain path closes the results journal the moment inflight hits
        # zero, and "drained" promises every accepted job was persisted.
        self._finish(serve_job, result)
        with self._work:
            self._inflight -= 1
            if result.wall_time:
                self._recent_walls.append(result.wall_time)
                del self._recent_walls[:-64]
            self._work.notify_all()

    def _finish(self, serve_job: ServeJob, result: JobResult) -> None:
        serve_job.result = _result_view(result)
        serve_job.from_cache = bool(result.from_cache)
        serve_job.finished_at = time.time()
        serve_job.record_event(protocol.DONE, status=result.status,
                               from_cache=bool(result.from_cache),
                               trace_id=serve_job.trace_id)
        registry = obs.metrics()
        from repro.obs import rusage

        rss = rusage.process_rss_bytes()
        with self._lock:
            self.completed += 1
            self._remember_locked(serve_job, status=result.status,
                                  state=protocol.DONE)
            if rss is not None:
                self._rss_samples.append((self.completed, rss))
        registry.counter("serve.jobs_completed").inc()
        registry.counter(f"serve.status.{result.status}").inc()
        if serve_job.latency is not None:
            registry.histogram("serve.latency_seconds").observe(
                serve_job.latency
            )
        self._record_request_spans(serve_job, result)
        self._persist(serve_job)

    def _record_request_spans(self, serve_job: ServeJob,
                              result: JobResult) -> None:
        """Record the end-to-end ``serve.request`` span tree for one request.

        The tree is: ``serve.request`` (submit→done, trace-id attributed)
        with a ``serve.queue_wait`` child covering admission→dispatch, and
        the worker's whole re-rooted span tree grafted underneath — so
        ``dryadsynth explain`` and the Chrome trace render one tree per
        request, queue wait through SMT rounds.
        """
        recorder = obs.active()
        if recorder is None:
            return
        trace_attrs = (
            serve_job.trace.span_attrs() if serve_job.trace else {}
        )
        latency = serve_job.latency or 0.0
        start = max(0.0, time.monotonic() - recorder.epoch - latency)
        request_span = recorder.record_span(
            "serve.request",
            wall=latency,
            start=start,
            serve_id=serve_job.id,
            client=serve_job.client,
            priority=serve_job.priority,
            problem=serve_job.name,
            solver=serve_job.solver,
            from_cache=bool(result.from_cache),
            job_status=result.status,
            **trace_attrs,
        )
        if serve_job.queue_wait:
            recorder.record_span(
                "serve.queue_wait",
                wall=serve_job.queue_wait,
                start=start,
                parent_id=request_span,
                client=serve_job.client,
                **trace_attrs,
            )
        if result.telemetry:
            obs.merge_job_telemetry(
                result.telemetry,
                name=serve_job.name or "job",
                status=result.status,
                wall_time=result.wall_time,
                parent_id=request_span,
                attrs=trace_attrs,
            )

    def _persist(self, serve_job: ServeJob) -> None:
        """Append the terminal record to the results journal (if any)."""
        if self._results_handle is None:
            return
        record = serve_job.view()
        with self._results_lock:
            handle = self._results_handle
            if handle is None:
                return
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()

    # -- Introspection (HTTP handler threads) -----------------------------------

    def job_view(self, serve_id: str,
                 include_events: bool = False) -> Optional[Dict]:
        with self._lock:
            serve_job = self._jobs.get(serve_id)
        if serve_job is None:
            return None
        return serve_job.view(include_events=include_events)

    def get_job(self, serve_id: str) -> Optional[ServeJob]:
        with self._lock:
            return self._jobs.get(serve_id)

    def stats(self) -> Dict:
        with self._lock:
            queued = len(self.scheduler)
            payload = {
                "state": self.state,
                "uptime_seconds": round(time.monotonic() - self.started_at, 3),
                "accepted": self.accepted,
                "completed": self.completed,
                "rejected": self.rejected,
                "shed": self.shed,
                "cache_admissions": self.cache_admissions,
                "queued": queued,
                "inflight": self._inflight,
                "max_queue": self.settings.max_queue,
                "queue_depths": self.scheduler.depths(),
                "recent": list(self._recent),
            }
        payload["pool"] = self.pool.pool_stats()
        registry = obs.metrics()
        memo_hits = registry.counter("smt.memo_hits").value
        memo_misses = registry.counter("smt.memo_misses").value
        payload["memo"] = {
            "hits": memo_hits,
            "misses": memo_misses,
            "hit_rate": _rate(memo_hits, memo_misses),
        }
        cache = self.settings.cache
        if cache is not None:
            payload["cache"] = {
                "hits": cache.hits, "misses": cache.misses,
                "evictions": cache.evictions,
                "hit_rate": _rate(cache.hits, cache.misses),
            }
        payload["memory"] = self.memory_stats()
        return payload

    def memory_stats(self) -> Dict:
        """The ``/v1/stats`` memory block: daemon/worker RSS + leak trend."""
        from repro.obs import rusage

        registry = obs.metrics()
        slope = self._leak_slope()
        with self._lock:
            window = len(self._rss_samples)
        return {
            "daemon_rss_bytes": rusage.process_rss_bytes(),
            "daemon_peak_rss_bytes": rusage.self_peak_rss_bytes(),
            "children_peak_rss_bytes": rusage.children_peak_rss_bytes(),
            "pool_peak_rss_bytes":
                registry.gauge("pool.peak_rss_bytes").value or None,
            "max_rss_mb": self.settings.max_rss_mb,
            "leak_slope_bytes_per_request":
                round(slope, 1) if slope is not None else None,
            "leak_window": window,
        }

    def _leak_slope(self) -> Optional[float]:
        """Least-squares RSS slope (bytes per completed request).

        Computed over the leak-watch ring; ``None`` until the ring is full —
        a short-lived spike should not trip the condition, only a trend
        sustained across the whole window.
        """
        with self._lock:
            samples = list(self._rss_samples)
        if len(samples) < self.settings.leak_window:
            return None
        n = len(samples)
        mean_x = sum(x for x, _ in samples) / n
        mean_y = sum(y for _, y in samples) / n
        var = sum((x - mean_x) ** 2 for x, _ in samples)
        if var == 0:
            return 0.0
        cov = sum((x - mean_x) * (y - mean_y) for x, y in samples)
        return cov / var

    def health(self) -> Dict:
        """``/healthz`` provider: degraded on dead workers or saturation.

        Degraded responses name *which* condition tripped, machine-readably:
        the ``conditions`` map always carries every known condition with a
        ``tripped`` flag and a detail payload, and ``reasons`` keeps the
        human-readable strings.
        """
        with self._lock:
            queued = len(self.scheduler)
            state = self.state
            inflight = self._inflight
        alive = len(self.pool.worker_pids())
        expected = min(self.settings.workers, inflight)
        conditions = {
            "dead_workers": {
                "tripped": alive < expected,
                "workers_alive": alive,
                "workers_busy": expected,
            },
            "queue_saturated": {
                "tripped": queued >= self.settings.max_queue,
                "queued": queued,
                "max_queue": self.settings.max_queue,
            },
            "draining": {
                "tripped": state != RUNNING,
                "state": state,
            },
        }
        slope = self._leak_slope()
        slope_limit = self.settings.leak_slope_mb * 1024 * 1024
        conditions["rss_leak"] = {
            "tripped": slope is not None and slope > slope_limit,
            "slope_bytes_per_request":
                round(slope, 1) if slope is not None else None,
            "slope_limit_bytes_per_request": slope_limit,
            "window": self.settings.leak_window,
        }
        reasons = []
        if conditions["dead_workers"]["tripped"]:
            reasons.append(
                f"dead workers: {alive} alive < {expected} busy"
            )
        if conditions["queue_saturated"]["tripped"]:
            reasons.append(
                f"queue saturated: {queued}/{self.settings.max_queue}"
            )
        if conditions["draining"]["tripped"]:
            reasons.append(f"not admitting: {state}")
        if conditions["rss_leak"]["tripped"]:
            reasons.append(
                "rss leak: daemon RSS growing "
                f"{(slope or 0.0) / (1024 * 1024):.1f}MB/request over the "
                f"last {self.settings.leak_window} requests"
            )
        payload = {
            "status": "ok" if not reasons else "degraded",
            "state": state,
            "queued": queued,
            "inflight": inflight,
            "workers_alive": alive,
            "conditions": conditions,
        }
        if reasons:
            payload["reasons"] = reasons
        return payload

    # -- Drain / shutdown -------------------------------------------------------

    def request_drain(self) -> None:
        """Stop admitting; finish accepted jobs; then shut the pool down.

        Idempotent and non-blocking — the dispatcher thread performs the
        actual drain; :meth:`wait_stopped` observes completion.
        """
        with self._work:
            if self.state != RUNNING:
                return
            self.state = DRAINING
            self._work.notify_all()
        obs.metrics().counter("serve.drains").inc()

    def _finish_drain_locked(self) -> None:
        self.state = STOPPED
        # Close the journal before announcing: "drained" means persisted.
        with self._results_lock:
            if self._results_handle is not None:
                self._results_handle.close()
                self._results_handle = None
        self._drained.set()

    def wait_stopped(self, timeout: Optional[float] = None) -> bool:
        if not self._drained.wait(timeout):
            return False
        self.pool.close()
        return True

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Synchronous shutdown for tests/CLI: drain (or abort) then close."""
        if drain:
            self.request_drain()
            if self.wait_stopped(timeout):
                return
        # Hard stop: cancel queued work, then close the pool.
        with self._work:
            self.state = STOPPED
            while True:
                entry = self.scheduler.pop()
                if entry is None:
                    break
                self._pending_jobs.pop(entry.item.id, None)
            self._work.notify_all()
        self._drained.set()
        with self._results_lock:
            if self._results_handle is not None:
                self._results_handle.close()
                self._results_handle = None
        self.pool.close()


def _rate(hits: int, misses: int) -> float:
    total = hits + misses
    return round(hits / total, 4) if total else 0.0


def _result_view(result: JobResult) -> Dict:
    """The client-facing result record (telemetry payloads stay server-side)."""
    record = result.to_json()
    record.pop("telemetry", None)
    return record
