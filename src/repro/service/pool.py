"""A crash-tolerant multiprocessing worker pool for synthesis jobs.

Design constraints (why this is not ``concurrent.futures``):

- **Workers are survivable, not trusted.**  A synthesis run may hang, blow
  past its budget, or die (stack overflow, OOM kill).  The parent owns every
  job's hard deadline, detects dead workers by process liveness (not by pipe
  EOF alone), terminates and respawns on overrun, and retries each failed
  job once (configurable) before recording a ``crashed``/``timeout`` result.
  ``ProcessPoolExecutor`` instead marks the whole pool broken on one lost
  worker and offers no per-job deadline.
- **First-finisher-wins races.**  :meth:`WorkerPool.race` runs several jobs
  for the *same* logical question (portfolio members, height workers) and
  terminates the losers the moment one solves — the paper's Section 5.1
  semantics, but across processes instead of GIL-bound threads.
- **Streaming submission.**  The scheduler is a long-lived service thread;
  :meth:`WorkerPool.submit` hands it one job at a time and returns a
  :class:`PoolTicket` immediately, which is what a long-lived daemon
  (:mod:`repro.serve`) needs.  :meth:`run` and :meth:`race` are thin batch
  conveniences on top of the same core, so the CLI batch path and the
  service path exercise identical scheduling code.
- **Warm workers.**  Worker processes persist across jobs *and* across
  ``run()``/``submit()`` calls until :meth:`close`; a daemon that keeps one
  pool alive amortizes interpreter start-up and module imports over its
  whole lifetime instead of respawning per job.
- **Bounded queue + fingerprint cache.**  ``queue_size`` is the advertised
  admission bound (:meth:`saturated` — the daemon's backpressure signal),
  and a :class:`~repro.service.cache.ResultCache` short-circuits jobs whose
  fingerprint already has a terminal result.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import threading
import time
from collections import deque
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.service.cache import ResultCache

logger = logging.getLogger(__name__)
from repro.service.jobs import (
    CANCELLED,
    CRASHED,
    OOM_BUDGET,
    SOLVED,
    TIMEOUT,
    JobResult,
    SynthesisJob,
    execute_job,
)

ProgressFn = Callable[[JobResult], None]

#: Default cap on the live ``/jobs`` view: completed entries beyond this are
#: evicted oldest-first so a long-lived daemon never leaks job state.
DEFAULT_LIVE_CAP = 10_000

#: Seconds the scheduler waits for a worker message or a submission before
#: it re-checks deadlines.
POLL_INTERVAL = 0.05

#: Seconds between two polls of every busy worker's resident set (the RSS
#: gauges and the ``max_rss_mb`` budget).
RSS_POLL_INTERVAL = 0.25


class PoolError(RuntimeError):
    """The pool was used after :meth:`WorkerPool.close`."""


def _detach_inherited_logging() -> None:
    """Make logging safe inside a just-forked worker process.

    CPython reinitialises *logging* locks after fork, but not the buffered
    stream objects handlers write to: if any other parent thread (pool
    scheduler, daemon dispatcher, HTTP threads) was mid-write at fork
    time, the inherited ``TextIOWrapper`` lock stays held forever in the
    child and its first ``flush()`` deadlocks — a worker hanging silently
    until its hard deadline, then being retried.  So the worker detaches
    every inherited handler on the root and ``repro`` loggers (without
    ``close()``: closing flushes, the very call that deadlocks) and parks
    a :class:`~logging.NullHandler` on ``repro`` so the no-handler
    fallback never touches the inherited ``sys.stderr`` wrapper.
    """
    for name in (None, "repro"):
        inherited = logging.getLogger(name)
        for handler in list(inherited.handlers):
            inherited.removeHandler(handler)
    logging.getLogger("repro").addHandler(logging.NullHandler())


def _worker_main(conn) -> None:
    """Worker loop: receive a job, run it, send the result, repeat.

    ``None`` is the shutdown sentinel.  ``execute_job`` never raises, so the
    only ways a worker stops replying are a hard crash or a hang — both are
    the parent's responsibility.

    A worker forked inside the parent's :func:`repro.obs.recording` (the
    daemon runs under one) inherits its ambient recorder, and every job
    without telemetry would then record spans into a copy nothing reads.
    So the worker drops it: a job records only when it asks to.
    """
    _detach_inherited_logging()
    obs._active = None
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if job is None:
            return
        try:
            conn.send(execute_job(job))
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """One worker process plus its parent-side pipe end and assignment."""

    __slots__ = ("process", "conn", "slot", "assigned_at", "deadline",
                 "jobs_done", "last_rss")

    def __init__(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(target=_worker_main, args=(child_conn,), daemon=True)
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.slot: Optional["PoolTicket"] = None
        self.assigned_at = 0.0
        self.deadline: Optional[float] = None
        #: Jobs this process has executed — the warm-reuse evidence the
        #: daemon's ``/v1/stats`` reports (spawns ≪ jobs when reuse works).
        self.jobs_done = 0
        #: Latest parent-side RSS reading (bytes) from the scheduler's
        #: resource poll; feeds the per-worker gauges, ``/v1/stats`` and
        #: the kill-cause record an over-budget termination journals.
        self.last_rss: Optional[int] = None

    @property
    def busy(self) -> bool:
        return self.slot is not None

    def assign(self, ticket: "PoolTicket") -> None:
        self.conn.send(ticket.job)
        self.slot = ticket
        self.assigned_at = time.monotonic()
        hard = ticket.job.effective_hard_timeout
        self.deadline = self.assigned_at + hard if hard is not None else None

    def clear(self) -> None:
        self.slot = None
        self.deadline = None

    def stop(self, grace: float = 1.0) -> None:
        """Terminate the process (escalating to SIGKILL) and close the pipe."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(grace)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(grace)
        self.conn.close()


class RaceGroup:
    """Shared token linking racers: the first solve cancels the rest."""

    __slots__ = ("won",)

    def __init__(self) -> None:
        self.won = False


class PoolTicket:
    """Handle for one submitted job; completed by the scheduler thread."""

    __slots__ = (
        "job", "group", "on_complete", "on_assign", "attempts", "failures",
        "postmortem", "submitted_at", "queue_wait", "result", "cancelled",
        "cache_checked", "_done",
    )

    def __init__(
        self,
        job: SynthesisJob,
        group: Optional[RaceGroup] = None,
        on_complete: Optional[ProgressFn] = None,
        on_assign: Optional[Callable[[SynthesisJob], None]] = None,
    ) -> None:
        self.job = job
        self.group = group
        self.on_complete = on_complete
        self.on_assign = on_assign
        self.attempts = 0
        self.failures: List[str] = []
        self.postmortem: Optional[Dict] = None
        self.submitted_at = time.monotonic()
        self.queue_wait = 0.0
        self.result: Optional[JobResult] = None
        #: Set (by the owner, e.g. the daemon shedding load) to cancel the
        #: ticket before assignment; the scheduler turns it into a
        #: ``cancelled`` result at admission time.
        self.cancelled = False
        self.cache_checked = False
        self._done = threading.Event()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> Optional[JobResult]:
        """Block until the job completes; returns the result (or ``None``)."""
        self._done.wait(timeout)
        return self.result


class WorkerPool:
    """Process pool executing :class:`SynthesisJob`\\ s with hard deadlines.

    Usable as a context manager; :meth:`submit`, :meth:`run` and
    :meth:`race` may be called repeatedly (from any thread) until
    :meth:`close`.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        max_retries: int = 1,
        queue_size: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        start_method: Optional[str] = None,
        flight_dir: Optional[str] = None,
        live_cap: int = DEFAULT_LIVE_CAP,
        live_ttl: Optional[float] = None,
        merge_telemetry: bool = True,
        max_rss_mb: Optional[float] = None,
    ) -> None:
        self.size = max(1, workers if workers is not None else (os.cpu_count() or 1))
        self.max_retries = max(0, max_retries)
        self.queue_size = queue_size if queue_size is not None else 2 * self.size
        self.cache = cache
        #: Soft per-worker RSS budget (MiB).  The scheduler polls every
        #: busy worker's resident set alongside its deadline checks; a
        #: worker over budget is terminated and its job completes as
        #: ``oom_budget`` (with a postmortem) — never a pool crash.  RSS
        #: gauges are published regardless; the budget only arms the kill.
        self.max_rss_mb = max_rss_mb
        self._last_rss_poll = 0.0
        #: When set, every assignment gets a per-attempt flight-recorder
        #: journal here (see :mod:`repro.obs.flight`); journals of cleanly
        #: completed attempts are removed, crashed/hung ones are kept and
        #: recovered into ``JobResult.postmortem``.
        self.flight_dir = flight_dir
        if flight_dir is not None:
            os.makedirs(flight_dir, exist_ok=True)
        #: Live per-job state for the ``/jobs`` telemetry endpoint, keyed by
        #: job id.  Mutated by the scheduler thread, snapshotted by the HTTP
        #: server thread — hence the lock.  Completed entries are evicted
        #: beyond ``live_cap`` (oldest first) and past ``live_ttl`` seconds,
        #: so a long-lived daemon keeps a bounded recent-history view
        #: instead of accumulating every job it ever ran.
        self.live_cap = max(1, live_cap)
        self.live_ttl = live_ttl
        #: Whether completions fold worker telemetry into the ambient
        #: recorder here.  The serving daemon turns this off and performs
        #: the merge itself, re-rooting each worker tree under its own
        #: request span (merging in both places would duplicate every span).
        self.merge_telemetry = merge_telemetry
        self._live: Dict[str, Dict] = {}
        self._live_lock = threading.Lock()
        if start_method is None:
            # fork is markedly cheaper where available; jobs carry only text
            # and plain dataclasses, so either start method is correct.
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._ctx = mp.get_context(start_method)
        self._workers: List[_Worker] = []
        self._closed = False
        self._job_seq = 0
        #: Cumulative counters backing the daemon's warm-reuse statistics.
        self.workers_spawned = 0
        self.jobs_dispatched = 0
        # Submission plumbing: tickets flow through ``_inbox`` to the
        # scheduler thread; ``_wake_w`` interrupts its connection poll so a
        # submit is picked up immediately instead of after ``POLL_INTERVAL``.
        self._inbox: deque = deque()
        self._cond = threading.Condition()
        self._service: Optional[threading.Thread] = None
        self._stopping = False
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)

    # -- Introspection ----------------------------------------------------------

    def worker_pids(self) -> List[int]:
        return [
            w.process.pid
            for w in self._workers
            if w.process.pid is not None and w.process.is_alive()
        ]

    def backlog(self) -> int:
        """Jobs admitted but not yet completed (queued + running)."""
        with self._cond:
            queued = len(self._inbox)
        return queued + sum(1 for w in self._workers if w.busy)

    @property
    def saturated(self) -> bool:
        """Whether the bounded queue is full (the backpressure signal)."""
        return self.backlog() >= self.queue_size

    def pool_stats(self) -> Dict:
        """Warm-reuse and dispatch counters for the daemon's ``/v1/stats``."""
        return {
            "workers": self.size,
            "workers_alive": len(self.worker_pids()),
            "workers_spawned": self.workers_spawned,
            "jobs_dispatched": self.jobs_dispatched,
            "backlog": self.backlog(),
            "queue_size": self.queue_size,
            "max_rss_mb": self.max_rss_mb,
            "worker_rss_bytes": {
                str(w.process.pid): w.last_rss
                for w in self._workers
                if w.process.pid is not None and w.last_rss is not None
            },
        }

    # -- Live job view (the `/jobs` telemetry endpoint's provider) --------------

    def jobs_snapshot(self) -> List[Dict]:
        """Thread-safe snapshot of every tracked job's live state.

        Each entry: ``job_id``, ``name``, ``solver``, ``state`` (``queued`` /
        ``running`` / ``retrying`` / ``done``), final ``status`` when done,
        ``attempts``, ``queue_wait``, and — while running — the assigned
        ``worker_pid``, ``running_for`` and ``deadline_in`` seconds.
        """
        now = time.monotonic()
        with self._live_lock:
            states = [dict(state) for state in self._live.values()]
        for state in states:
            deadline = state.pop("_deadline", None)
            assigned_at = state.pop("_assigned_at", None)
            state.pop("_done_at", None)
            running = state.get("state") == "running"
            state["deadline_in"] = (
                round(deadline - now, 3) if running and deadline is not None
                else None
            )
            state["running_for"] = (
                round(now - assigned_at, 3)
                if running and assigned_at is not None
                else None
            )
        return states

    def _live_update(self, job: SynthesisJob, **fields) -> None:
        with self._live_lock:
            state = self._live.get(job.job_id)
            if state is None:
                self._evict_live_locked(time.monotonic())
                state = self._live[job.job_id] = {
                    "job_id": job.job_id,
                    "name": job.name,
                    "solver": job.solver,
                    "state": "queued",
                    "status": None,
                    "attempts": 0,
                    "queue_wait": None,
                    "worker_pid": None,
                }
            state.update(fields)
            # A batch submitted up front inserts every entry as "queued"
            # before anything completes, so eviction must also run on the
            # done transition — not only on insert — for the view to stay
            # bounded while jobs finish.
            if "_done_at" in fields:
                self._evict_live_locked(time.monotonic())

    def _evict_live_locked(self, now: float) -> None:
        """Bound the live view: TTL-expire and cap completed entries."""
        if self.live_ttl is not None:
            expired = [
                key for key, state in self._live.items()
                if state.get("state") == "done"
                and now - state.get("_done_at", now) > self.live_ttl
            ]
            for key in expired:
                del self._live[key]
        overflow = len(self._live) + 1 - self.live_cap
        if overflow > 0:
            done = [key for key, state in self._live.items()
                    if state.get("state") == "done"]
            for key in done[:overflow]:
                del self._live[key]

    # -- Public API -------------------------------------------------------------

    def submit(
        self,
        job: SynthesisJob,
        on_complete: Optional[ProgressFn] = None,
        group: Optional[RaceGroup] = None,
        on_assign: Optional[Callable[[SynthesisJob], None]] = None,
    ) -> PoolTicket:
        """Queue one job and return a ticket; never blocks on execution.

        ``on_complete`` (and ``on_assign``) run on the scheduler thread with
        no pool locks held, so they may call back into the pool.  Jobs in
        the same :class:`RaceGroup` race: the first ``solved`` result
        cancels the rest.
        """
        if self._closed:
            raise PoolError("pool is closed")
        with self._cond:
            if not job.job_id:
                self._job_seq += 1
                job.job_id = f"job-{self._job_seq}"
            ticket = PoolTicket(job, group=group, on_complete=on_complete,
                                on_assign=on_assign)
            self._inbox.append(ticket)
            self._ensure_service_locked()
            self._cond.notify_all()
        self._live_update(job)
        self._wake()
        return ticket

    def run(
        self,
        jobs: Sequence[SynthesisJob],
        progress: Optional[ProgressFn] = None,
    ) -> List[JobResult]:
        """Execute every job; results come back in submission order."""
        tickets = [self.submit(job, on_complete=progress) for job in jobs]
        return self._wait_all(tickets)

    def race(
        self,
        jobs: Sequence[SynthesisJob],
        progress: Optional[ProgressFn] = None,
    ) -> Tuple[Optional[JobResult], List[JobResult]]:
        """First-finisher-wins: stop (and cancel losers) on the first solve.

        Returns ``(winner, results)``; ``winner`` is ``None`` when nobody
        solved.  Losing racers get ``cancelled`` results.
        """
        group = RaceGroup()
        tickets = [
            self.submit(job, on_complete=progress, group=group) for job in jobs
        ]
        results = self._wait_all(tickets)
        winner = next((r for r in results if r.status == SOLVED), None)
        return winner, results

    def close(self) -> None:
        """Shut down: cancel queued work, stop the scheduler, reap workers."""
        with self._cond:
            self._closed = True
            self._stopping = True
            self._cond.notify_all()
        self._wake()
        if self._service is not None:
            self._service.join(timeout=30.0)
            self._service = None
        if self._wake_r is not None:
            for fd in (self._wake_r, self._wake_w):
                try:
                    os.close(fd)
                except OSError:
                    pass
            self._wake_r = self._wake_w = None
        for worker in self._workers:
            if not worker.busy:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for worker in self._workers:
            if worker.busy:
                worker.stop()
            else:
                worker.process.join(1.0)
                if worker.process.is_alive():
                    worker.stop()
                else:
                    worker.conn.close()
        self._workers = []

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- Waiting ----------------------------------------------------------------

    def _wait_all(self, tickets: List[PoolTicket]) -> List[JobResult]:
        results: List[JobResult] = []
        for ticket in tickets:
            while not ticket._done.wait(timeout=0.5):
                service = self._service
                if service is None or not service.is_alive():
                    raise PoolError(
                        "pool scheduler died with jobs outstanding"
                    )
        for ticket in tickets:
            assert ticket.result is not None
            results.append(ticket.result)
        return results

    # -- Scheduler (everything below runs on the service thread) ----------------

    def _ensure_service_locked(self) -> None:
        if self._service is None or not self._service.is_alive():
            self._service = threading.Thread(
                target=self._service_loop,
                name="repro-pool-scheduler",
                daemon=True,
            )
            self._service.start()

    def _wake(self) -> None:
        if self._wake_w is None:
            return
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    def _drain_wake_pipe(self) -> None:
        if self._wake_r is None:
            return
        try:
            os.read(self._wake_r, 4096)
        except (BlockingIOError, OSError):
            pass

    def _service_loop(self) -> None:
        try:
            while True:
                if self._stopping:
                    self._shutdown_pending()
                    return
                self._admit()
                registry = obs.metrics()
                registry.gauge("pool.workers_alive").set(len(self._workers))
                with self._cond:
                    queued = len(self._inbox)
                registry.gauge("pool.jobs_queued").set(float(queued))
                busy = [w for w in self._workers if w.busy]
                registry.gauge("pool.jobs_running").set(float(len(busy)))
                if not busy:
                    with self._cond:
                        if not self._inbox and not self._stopping:
                            self._cond.wait(timeout=POLL_INTERVAL)
                    self._drain_wake_pipe()
                    continue
                ready = _conn_wait(
                    [w.conn for w in busy] + [self._wake_r],
                    timeout=POLL_INTERVAL,
                )
                if self._wake_r in ready:
                    self._drain_wake_pipe()
                now = time.monotonic()
                if now - self._last_rss_poll >= RSS_POLL_INTERVAL:
                    self._last_rss_poll = now
                    self._poll_worker_rss(registry)
                for worker in busy:
                    if not worker.busy:
                        continue
                    if worker.conn in ready:
                        self._collect(worker)
                    elif not worker.process.is_alive():
                        self._fail_attempt(
                            worker,
                            "crashed: worker exited with code "
                            f"{worker.process.exitcode}",
                            CRASHED,
                        )
                    elif worker.deadline is not None and now > worker.deadline:
                        self._fail_attempt(
                            worker,
                            "timeout: exceeded hard deadline of "
                            f"{job_hard_timeout(worker):.3g}s",
                            TIMEOUT,
                        )
        except Exception:  # noqa: BLE001 - scheduler must not die silently
            logger.exception("pool scheduler crashed")
            raise

    def _admit(self) -> None:
        """Drain the inbox: cancellations, cache hits, then assignments."""
        while True:
            with self._cond:
                if not self._inbox:
                    return
                ticket = self._inbox.popleft()
            if ticket.cancelled or (ticket.group is not None
                                    and ticket.group.won):
                self._complete_cancelled(ticket)
                continue
            if (not ticket.cache_checked and ticket.attempts == 0
                    and self.cache is not None):
                ticket.cache_checked = True
                hit = self.cache.get(ticket.job.fingerprint())
                if hit is not None:
                    job = ticket.job
                    result = JobResult.from_json(hit.to_json())
                    result.job_id = job.job_id
                    result.name = job.name
                    result.from_cache = True
                    # A cached record's telemetry describes the original
                    # run, not this one: don't re-merge it.
                    result.telemetry = None
                    ticket.queue_wait = time.monotonic() - ticket.submitted_at
                    self._complete(ticket, result)
                    continue
            worker = self._idle_worker()
            if worker is None:
                with self._cond:
                    self._inbox.appendleft(ticket)
                return
            self._assign(worker, ticket)

    def _assign(self, worker: _Worker, ticket: PoolTicket) -> None:
        job = ticket.job
        ticket.attempts += 1
        if self.flight_dir is not None:
            job.flight_journal = os.path.join(
                self.flight_dir,
                f"{_safe_name(job.job_id)}"
                f"-attempt{ticket.attempts}.flight.jsonl",
            )
        worker.assign(ticket)
        self.jobs_dispatched += 1
        ticket.queue_wait = worker.assigned_at - ticket.submitted_at
        self._live_update(
            job, state="running", attempts=ticket.attempts,
            worker_pid=worker.process.pid,
            queue_wait=round(ticket.queue_wait, 4),
            _deadline=worker.deadline,
            _assigned_at=worker.assigned_at,
        )
        if ticket.on_assign is not None:
            ticket.on_assign(job)

    def _collect(self, worker: _Worker) -> None:
        """A busy worker's pipe is readable: reap its result (or its death)."""
        try:
            result = worker.conn.recv()
        except (EOFError, OSError):
            self._fail_attempt(
                worker, "crashed: worker pipe closed mid-job", CRASHED
            )
            return
        ticket = worker.slot
        assert ticket is not None
        worker.clear()
        worker.jobs_done += 1
        job = ticket.job
        if result.status == CRASHED:
            # In-process failure: the worker survives, the job is retried
            # like any other crash.  Its journal stays on disk and feeds
            # the post-mortem.
            ticket.failures.append(f"crashed: {result.error}")
            self._recover_postmortem(ticket)
            if ticket.attempts <= self.max_retries:
                self._live_update(job, state="retrying", worker_pid=None)
                with self._cond:
                    self._inbox.appendleft(ticket)
            else:
                self._complete(ticket, result)
        else:
            # Clean completion: the flight journal served its purpose and
            # would only accumulate on disk.
            if job.flight_journal:
                try:
                    os.unlink(job.flight_journal)
                except OSError:
                    pass
            self._complete(ticket, result)

    def _poll_worker_rss(self, registry) -> None:
        """Resource poll: per-worker RSS gauges plus the soft-budget kill.

        Runs on the scheduler thread alongside deadline enforcement.  Every
        live worker's resident set is read from ``/proc`` and published as a
        per-slot gauge (slot index, not pid, so the metric set stays
        bounded across respawns); busy workers over ``max_rss_mb`` are
        terminated through the same :meth:`_fail_attempt` path a deadline
        overrun takes — the job completes as ``oom_budget``, never a pool
        crash.
        """
        from repro.obs import rusage

        budget_bytes = (
            self.max_rss_mb * 1024 * 1024
            if self.max_rss_mb is not None else None
        )
        over_budget: List[_Worker] = []
        for index, worker in enumerate(list(self._workers)):
            pid = worker.process.pid
            if pid is None or not worker.process.is_alive():
                continue
            rss = rusage.process_rss_bytes(pid)
            if rss is None:
                continue
            worker.last_rss = rss
            registry.gauge(f"pool.worker.{index}.rss_bytes").set(float(rss))
            registry.gauge("pool.peak_rss_bytes").set_max(float(rss))
            if budget_bytes is not None and worker.busy and rss > budget_bytes:
                over_budget.append(worker)
        children_peak = rusage.children_peak_rss_bytes()
        if children_peak:
            registry.gauge("pool.children_peak_rss_bytes").set_max(
                float(children_peak)
            )
        for worker in over_budget:
            if not worker.busy:
                continue  # completed between collection and kill
            rss_mb = (worker.last_rss or 0) / (1024 * 1024)
            registry.counter("pool.oom_budget_kills").inc()
            self._fail_attempt(
                worker,
                f"oom_budget: worker rss {rss_mb:.0f}MB exceeded "
                f"--max-rss-mb {self.max_rss_mb:g}",
                OOM_BUDGET,
            )

    def _fail_attempt(self, worker: _Worker, reason: str, status: str) -> None:
        """A worker crashed/hung on its job: retire it, retry or record."""
        ticket = worker.slot
        assert ticket is not None
        job = ticket.job
        elapsed = time.monotonic() - worker.assigned_at
        worker.clear()
        self._retire(worker)
        self._journal_kill(worker, job, reason, status)
        ticket.failures.append(reason)
        self._recover_postmortem(ticket)
        if ticket.attempts <= self.max_retries:
            self._live_update(job, state="retrying", worker_pid=None)
            with self._cond:
                self._inbox.appendleft(ticket)
            return
        self._complete(
            ticket,
            JobResult(
                job.job_id, job.name, job.solver, status,
                wall_time=round(elapsed, 4), error=reason,
            ),
        )

    def _journal_kill(self, worker: _Worker, job: SynthesisJob,
                      reason: str, status: str) -> None:
        """Append the kill cause to the dead worker's flight journal.

        The worker can no longer write (it has just been retired), so the
        parent appends one ``{"kill": ...}`` record naming *why* it died —
        deadline overrun, RSS-budget kill, or a crash of the worker's own
        making — plus the terminating signal (from the negative exitcode)
        and the scheduler's last RSS reading.  ``dryadsynth postmortem``
        renders the three causes distinctly.
        """
        if not job.flight_journal:
            return
        from repro.obs import flight

        if status == OOM_BUDGET:
            cause = "oom_budget"
        elif status == TIMEOUT:
            cause = "deadline"
        else:
            cause = "crash"
        exitcode = worker.process.exitcode
        signal_name = None
        if exitcode is not None and exitcode < 0:
            import signal as _signal

            try:
                signal_name = _signal.Signals(-exitcode).name
            except ValueError:
                signal_name = f"signal {-exitcode}"
        flight.append_kill_record(
            job.flight_journal,
            cause=cause,
            reason=reason,
            signal=signal_name,
            exitcode=exitcode,
            last_rss_bytes=worker.last_rss,
        )

    def _recover_postmortem(self, ticket: PoolTicket) -> None:
        """Salvage the flight journal a failed attempt left behind."""
        if not ticket.job.flight_journal:
            return
        from repro.obs.flight import read_postmortem

        postmortem = read_postmortem(ticket.job.flight_journal)
        if postmortem is not None:
            ticket.postmortem = postmortem
            obs.metrics().counter("pool.postmortems_recovered").inc()

    def _complete(self, ticket: PoolTicket, result: JobResult) -> None:
        job = ticket.job
        result.attempts = ticket.attempts or result.attempts
        result.failures = ticket.failures or result.failures
        result.queue_wait = round(ticket.queue_wait, 4)
        if result.postmortem is None and ticket.postmortem is not None:
            result.postmortem = ticket.postmortem
        self._live_update(
            job, state="done", status=result.status, worker_pid=None,
            queue_wait=result.queue_wait, _done_at=time.monotonic(),
        )
        if self.cache is not None and not result.from_cache:
            self.cache.put(job.fingerprint(), result)
        registry = obs.metrics()
        registry.counter("pool.jobs_completed").inc()
        registry.counter(f"pool.status.{result.status}").inc()
        registry.histogram("pool.queue_wait_seconds").observe(
            result.queue_wait
        )
        if (self.merge_telemetry and result.telemetry is not None
                and not result.from_cache):
            obs.merge_job_telemetry(
                result.telemetry,
                name=result.name,
                status=result.status,
                wall_time=result.wall_time,
            )
        self._finish(ticket, result)
        if (ticket.group is not None and result.status == SOLVED
                and not ticket.group.won):
            ticket.group.won = True
            self._cancel_group(ticket.group)

    def _complete_cancelled(self, ticket: PoolTicket) -> None:
        job = ticket.job
        result = _cancelled(job)
        result.queue_wait = round(ticket.queue_wait, 4)
        self._live_update(job, state="done", status=CANCELLED,
                          worker_pid=None, _done_at=time.monotonic())
        self._finish(ticket, result)

    def _finish(self, ticket: PoolTicket, result: JobResult) -> None:
        """Publish the result (no locks held) and wake any waiters."""
        ticket.result = result
        ticket._done.set()
        if ticket.on_complete is not None:
            ticket.on_complete(result)

    def _cancel_group(self, group: RaceGroup) -> None:
        """A racer won: terminate running losers; queued ones cancel at admit."""
        for worker in list(self._workers):
            ticket = worker.slot
            if ticket is not None and ticket.group is group:
                worker.clear()
                self._retire(worker)
                self._complete_cancelled(ticket)

    def _shutdown_pending(self) -> None:
        """The pool is closing: cancel queued tickets and busy workers."""
        while True:
            with self._cond:
                if not self._inbox:
                    break
                ticket = self._inbox.popleft()
            self._complete_cancelled(ticket)
        for worker in list(self._workers):
            ticket = worker.slot
            if ticket is not None:
                worker.clear()
                self._retire(worker)
                self._complete_cancelled(ticket)

    # -- Internals --------------------------------------------------------------

    def _idle_worker(self) -> Optional[_Worker]:
        for worker in self._workers:
            if not worker.busy:
                if worker.process.is_alive():
                    return worker
                self._retire(worker)
                break
        if len(self._workers) < self.size:
            worker = _Worker(self._ctx)
            self._workers.append(worker)
            self.workers_spawned += 1
            return worker
        return None

    def _retire(self, worker: _Worker) -> None:
        worker.stop()
        if worker in self._workers:
            self._workers.remove(worker)


def _cancelled(job: SynthesisJob) -> JobResult:
    return JobResult(job.job_id, job.name, job.solver, CANCELLED)


def _safe_name(job_id: str) -> str:
    """A job id reduced to filesystem-safe characters for journal names."""
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in job_id)


def job_hard_timeout(worker: _Worker) -> float:
    assert worker.deadline is not None
    return worker.deadline - worker.assigned_at
