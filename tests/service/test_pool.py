"""Tests for the crash-tolerant worker pool.

These exercise the pool's contract from the issue: a worker that raises, a
worker that hangs past its deadline (parent terminates and retries), a
worker killed mid-job (crashed-then-retried, never a hung pool or a lost
job), first-finisher-wins cancellation, and cache hit/miss keyed by
fingerprint.
"""

import io
import logging
import os
import signal
import threading
import time

import pytest

from repro.service.cache import ResultCache
from repro.service.jobs import (
    CANCELLED,
    CRASHED,
    SOLVED,
    TIMEOUT,
    UNSOLVED,
    SynthesisJob,
)
from repro import obs
from repro.service import pool as pool_module
from repro.service.pool import PoolError, WorkerPool, _detach_inherited_logging

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


def _job(solver, **kwargs):
    kwargs.setdefault("hard_timeout", 60)
    return SynthesisJob(problem_text="", solver=solver, **kwargs)


class TestBasicExecution:
    def test_runs_real_jobs_in_submission_order(self):
        jobs = [
            SynthesisJob(problem_text=MAX2_SL, solver="dryadsynth", timeout=30,
                         name="a"),
            _job("debug-solve", name="b"),
        ]
        with WorkerPool(workers=2) as pool:
            results = pool.run(jobs)
        assert [r.name for r in results] == ["a", "b"]
        assert all(r.status == SOLVED for r in results)
        assert all(r.attempts == 1 for r in results)

    def test_more_jobs_than_workers(self):
        jobs = [_job("debug-solve", name=f"j{i}") for i in range(7)]
        with WorkerPool(workers=2, queue_size=3) as pool:
            results = pool.run(jobs)
        assert len(results) == 7
        assert all(r.status == SOLVED for r in results)

    def test_pool_reusable_until_closed(self):
        pool = WorkerPool(workers=1)
        try:
            assert pool.run([_job("debug-solve")])[0].status == SOLVED
            assert pool.run([_job("debug-sleep@0")])[0].status == UNSOLVED
        finally:
            pool.close()
        with pytest.raises(PoolError):
            pool.run([_job("debug-solve")])

    def test_progress_callback_sees_every_result(self):
        seen = []
        jobs = [_job("debug-solve", name=f"j{i}") for i in range(3)]
        with WorkerPool(workers=2) as pool:
            pool.run(jobs, progress=seen.append)
        assert sorted(r.name for r in seen) == ["j0", "j1", "j2"]


class TestCrashTolerance:
    def test_in_worker_exception_is_retried_then_reported(self):
        with WorkerPool(workers=1, max_retries=1) as pool:
            result = pool.run([_job("debug-raise")])[0]
        assert result.status == CRASHED
        assert result.attempts == 2
        assert len(result.failures) >= 1
        # Even a crashed job reports how long it queued before its (final)
        # assignment.
        assert result.queue_wait >= 0.0

    def test_hard_crash_is_retried(self, tmp_path):
        marker = str(tmp_path / "attempt.marker")
        with WorkerPool(workers=1, max_retries=1) as pool:
            result = pool.run([_job(f"debug-crash-once@{marker}")])[0]
        # First attempt os._exit()s the worker; the retry succeeds.
        assert result.status == UNSOLVED
        assert result.attempts == 2
        assert result.failures and "crashed" in result.failures[0]

    def test_persistent_hard_crash_reports_crashed(self):
        with WorkerPool(workers=1, max_retries=1) as pool:
            result = pool.run([_job("debug-exit@7")])[0]
        assert result.status == CRASHED
        assert result.attempts == 2
        assert len(result.failures) == 2

    def test_killing_worker_mid_job_crashed_then_retried(self):
        """SIGKILL a busy worker: the job must be retried, never lost."""
        pool = WorkerPool(workers=1, max_retries=1)
        try:
            killed = {"pid": None}

            def killer():
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    pids = pool.worker_pids()
                    if pids:
                        killed["pid"] = pids[0]
                        os.kill(pids[0], signal.SIGKILL)
                        return
                    time.sleep(0.02)

            thread = threading.Thread(target=killer)
            thread.start()
            results = pool.run([_job("debug-sleep@1.0", name="victim")])
            thread.join()
        finally:
            pool.close()
        assert killed["pid"] is not None
        (result,) = results
        # Either the kill landed mid-job (crashed once, then retried and
        # completed) or — rarely — before assignment (clean first run).
        assert result.status == UNSOLVED
        if result.attempts == 2:
            assert any("crashed" in f for f in result.failures)

    def test_crash_does_not_lose_sibling_jobs(self):
        jobs = [_job("debug-exit@9", name="bad")] + [
            _job("debug-solve", name=f"ok{i}") for i in range(4)
        ]
        with WorkerPool(workers=2, max_retries=0) as pool:
            results = pool.run(jobs)
        assert len(results) == 5
        assert results[0].status == CRASHED
        assert all(r.status == SOLVED for r in results[1:])


class TestDeadlines:
    def test_hung_worker_terminated_and_retried(self):
        start = time.monotonic()
        with WorkerPool(workers=1, max_retries=1) as pool:
            result = pool.run(
                [SynthesisJob(problem_text="", solver="debug-hang",
                              hard_timeout=0.4)]
            )[0]
        elapsed = time.monotonic() - start
        assert result.status == TIMEOUT
        assert result.attempts == 2
        assert len(result.failures) == 2
        assert all("deadline" in f for f in result.failures)
        assert result.queue_wait >= 0.0
        assert elapsed < 30  # two deadlines plus termination overhead

    def test_no_retry_when_disabled(self):
        with WorkerPool(workers=1, max_retries=0) as pool:
            result = pool.run(
                [SynthesisJob(problem_text="", solver="debug-hang",
                              hard_timeout=0.3)]
            )[0]
        assert result.status == TIMEOUT
        assert result.attempts == 1


class TestRace:
    def test_first_finisher_wins_and_losers_cancelled(self):
        jobs = [
            _job("debug-sleep@30", name="slow"),
            _job("debug-solve@0.1", name="fast"),
        ]
        start = time.monotonic()
        with WorkerPool(workers=2) as pool:
            winner, results = pool.race(jobs)
        elapsed = time.monotonic() - start
        assert winner is not None and winner.name == "fast"
        statuses = {r.name: r.status for r in results}
        assert statuses == {"slow": CANCELLED, "fast": SOLVED}
        # Both jobs were assigned to workers, so both carry a queue wait —
        # including the cancelled loser.
        assert all(r.queue_wait >= 0.0 for r in results)
        assert elapsed < 10  # the 30s sleeper was terminated, not awaited

    def test_race_with_no_winner(self):
        jobs = [_job("debug-sleep@0", name=f"j{i}") for i in range(3)]
        with WorkerPool(workers=2) as pool:
            winner, results = pool.race(jobs)
        assert winner is None
        assert all(r.status == UNSOLVED for r in results)

    def test_queued_jobs_cancelled_on_win(self):
        jobs = [_job("debug-solve@0.1", name="fast")] + [
            _job("debug-sleep@30", name=f"queued{i}") for i in range(5)
        ]
        with WorkerPool(workers=1) as pool:
            winner, results = pool.race(jobs)
        assert winner.name == "fast"
        assert all(r.status == CANCELLED for r in results[1:])


class TestPoolCache:
    def test_cache_hit_skips_execution(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        job = SynthesisJob(problem_text=MAX2_SL, solver="debug-solve",
                           hard_timeout=60)
        with WorkerPool(workers=1, cache=cache) as pool:
            first = pool.run([job])[0]
        assert not first.from_cache
        again = SynthesisJob(problem_text=MAX2_SL, solver="debug-solve",
                             hard_timeout=60)
        with WorkerPool(workers=1, cache=cache) as pool:
            second = pool.run([again])[0]
        assert second.from_cache
        assert second.solution_text == first.solution_text
        assert cache.hits == 1

    def test_different_solver_or_config_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        with WorkerPool(workers=1, cache=cache) as pool:
            pool.run([SynthesisJob(problem_text=MAX2_SL, solver="debug-solve",
                                   hard_timeout=60)])
            other = pool.run(
                [SynthesisJob(problem_text=MAX2_SL, solver="debug-sleep@0",
                              hard_timeout=60)]
            )[0]
        assert not other.from_cache

    def test_crashed_results_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        job = SynthesisJob(problem_text=MAX2_SL, solver="debug-raise",
                           hard_timeout=60)
        with WorkerPool(workers=1, cache=cache, max_retries=0) as pool:
            result = pool.run([job])[0]
        assert result.status == CRASHED
        assert cache.get(job.fingerprint()) is None


class TestSubmitAPI:
    def test_submit_returns_ticket_that_waits(self):
        with WorkerPool(workers=1) as pool:
            ticket = pool.submit(_job("debug-solve", name="t"))
            result = ticket.wait(timeout=30)
        assert result is not None
        assert result.status == SOLVED
        assert ticket.done

    def test_tickets_resolve_out_of_order(self):
        with WorkerPool(workers=2) as pool:
            slow = pool.submit(_job("debug-sleep@0.4", name="slow"))
            fast = pool.submit(_job("debug-solve", name="fast"))
            fast_result = fast.wait(timeout=30)
            assert fast_result.status == SOLVED
            assert not slow.done  # still running while fast already finished
            assert slow.wait(timeout=30).status == UNSOLVED

    def test_on_complete_fires_per_ticket(self):
        seen = []
        with WorkerPool(workers=1) as pool:
            tickets = [
                pool.submit(_job("debug-solve", name=f"j{i}"),
                            on_complete=lambda r: seen.append(r.name))
                for i in range(3)
            ]
            for ticket in tickets:
                ticket.wait(timeout=30)
        assert sorted(seen) == ["j0", "j1", "j2"]

    def test_warm_workers_reused_across_run_calls(self):
        with WorkerPool(workers=1) as pool:
            first = pool.run([_job("debug-solve", name="a")])
            second = pool.run([_job("debug-solve", name="b")])
            stats = pool.pool_stats()
        assert first[0].status == SOLVED and second[0].status == SOLVED
        assert stats["jobs_dispatched"] == 2
        assert stats["workers_spawned"] == 1  # same process served both runs


class TestLiveViewBounded:
    """The `/jobs` live view must not grow without bound (satellite fix)."""

    def _fake_job(self, index):
        return SynthesisJob(problem_text="", solver="debug-solve",
                            job_id=f"job-{index}", name=f"j{index}",
                            hard_timeout=60)

    def test_live_view_bounded_across_10k_jobs(self):
        pool = WorkerPool(workers=1, live_cap=100)
        try:
            for index in range(10_000):
                job = self._fake_job(index)
                pool._live_update(job)
                pool._live_update(job, state="done", status=SOLVED,
                                  _done_at=time.monotonic())
            snapshot = pool.jobs_snapshot()
            assert len(snapshot) <= 100
            # The survivors are the *recent* history, not the oldest.
            names = {entry["job_id"] for entry in snapshot}
            assert "job-9999" in names
            assert "job-0" not in names
        finally:
            pool.close()

    def test_ttl_expires_done_entries(self):
        pool = WorkerPool(workers=1, live_ttl=0.05)
        try:
            job = self._fake_job(0)
            pool._live_update(job)
            pool._live_update(job, state="done", status=SOLVED,
                              _done_at=time.monotonic())
            time.sleep(0.1)
            # Eviction runs on the next insert.
            pool._live_update(self._fake_job(1))
            names = {entry["job_id"] for entry in pool.jobs_snapshot()}
            assert "job-0" not in names
            assert "job-1" in names
        finally:
            pool.close()

    def test_running_jobs_never_evicted(self):
        pool = WorkerPool(workers=1, live_cap=5)
        try:
            running = self._fake_job(0)
            pool._live_update(running, state="running")
            for index in range(1, 50):
                job = self._fake_job(index)
                pool._live_update(job, state="done", status=SOLVED,
                                  _done_at=time.monotonic())
            names = {entry["job_id"] for entry in pool.jobs_snapshot()}
            assert "job-0" in names  # live work survives any cap pressure
            assert len(names) <= 6
        finally:
            pool.close()

    def test_real_jobs_respect_cap(self):
        with WorkerPool(workers=2, live_cap=10) as pool:
            results = pool.run(
                [_job("debug-solve", name=f"j{i}") for i in range(30)]
            )
            assert len(results) == 30
            assert len(pool.jobs_snapshot()) <= 10


class TestShutdown:
    def test_close_reaps_all_workers(self):
        pool = WorkerPool(workers=3)
        pool.run([_job("debug-solve", name=f"j{i}") for i in range(3)])
        pids = pool.worker_pids()
        assert pids
        pool.close()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            alive = [pid for pid in pids if _pid_alive(pid)]
            if not alive:
                break
            time.sleep(0.05)
        assert not [pid for pid in pids if _pid_alive(pid)]



class TestForkSafety:
    def test_worker_detaches_inherited_logging(self):
        # A forked worker must not log through inherited handlers: their
        # stream locks may have been held by another parent thread at fork
        # time, deadlocking the child's first flush.  The worker detaches
        # them (without close(), which would flush) and parks a NullHandler
        # so the fallback never reaches the inherited sys.stderr wrapper.
        root = logging.getLogger()
        repro_logger = logging.getLogger("repro")
        saved = {logger: list(logger.handlers)
                 for logger in (root, repro_logger)}
        inherited_root = logging.StreamHandler(io.StringIO())
        inherited_repro = logging.StreamHandler(io.StringIO())
        root.addHandler(inherited_root)
        repro_logger.addHandler(inherited_repro)
        try:
            _detach_inherited_logging()
            assert root.handlers == []
            assert len(repro_logger.handlers) == 1
            assert isinstance(repro_logger.handlers[0], logging.NullHandler)
        finally:
            for logger, handlers in saved.items():
                logger.handlers[:] = handlers


    def test_worker_drops_the_parents_recorder(self, monkeypatch):
        # A worker forked inside the parent's recording (as the daemon's
        # are) must not record a job that asked for no telemetry into the
        # recorder it inherited; a job that asks still ships its spans.
        execute_job = pool_module.execute_job

        def probe(job):
            recording = obs.active() is not None
            result = execute_job(job)
            result.stats["recorder_at_start"] = recording
            return result

        monkeypatch.setattr(pool_module, "execute_job", probe)
        with obs.recording():
            with WorkerPool(workers=1, start_method="fork") as pool:
                plain, traced = pool.run([
                    _job("debug-solve", name="plain"),
                    _job("debug-solve", name="traced", telemetry=True),
                ])
        assert plain.status == traced.status == SOLVED
        assert plain.stats["recorder_at_start"] is False
        assert plain.telemetry is None
        spans = traced.telemetry["spans"]["spans"]
        assert any(span["name"] == "worker.request" for span in spans)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
