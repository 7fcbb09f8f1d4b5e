"""End-to-end RSS-budget enforcement: over-budget workers die, pools don't.

The acceptance contract from the issue: a job that exceeds ``max_rss_mb``
is terminated *by the parent*, comes back with status ``oom_budget`` (not
a pool crash), and its post-mortem names the last active node — exercised
with the deliberately-allocating ``debug-alloc`` solver stub.
"""

import os

import pytest

from repro import obs
from repro.obs.flight import render_postmortem
from repro.service import pool as pool_module
from repro.service.jobs import OOM_BUDGET, SOLVED, UNSOLVED, SynthesisJob
from repro.service.pool import WorkerPool


@pytest.fixture(autouse=True)
def fast_rss_poll(monkeypatch):
    """Poll worker RSS every 0.1 s instead of every 0.25 s."""
    monkeypatch.setattr(pool_module, "RSS_POLL_INTERVAL", 0.1)


def _job(solver, **kwargs):
    kwargs.setdefault("hard_timeout", 60)
    return SynthesisJob(problem_text="", solver=solver, **kwargs)


def _budget_mb(headroom_mb):
    """An RSS budget ``headroom_mb`` above the *current* process's RSS.

    A forked worker starts at its parent's resident size, so an absolute
    budget that looks generous in isolation is already blown when the
    whole suite's parent has grown — the budget must be relative.
    """
    from repro.obs import rusage

    return rusage.process_rss_bytes() / (1024 * 1024) + headroom_mb


class TestOomBudgetKill:
    def test_over_budget_job_is_killed_not_the_pool(self, tmp_path):
        flight_dir = str(tmp_path / "flights")
        budget = _budget_mb(100)
        with obs.recording() as recorder:
            with WorkerPool(
                workers=1,
                max_retries=0,
                max_rss_mb=budget,
                flight_dir=flight_dir,
            ) as pool:
                # 400 MB against a (current + 100) MB budget: the worker
                # must journal its node and balloon well past the line,
                # held long enough that the RSS poll (every 0.1s) is what
                # ends the job.
                (victim,) = pool.run([
                    _job("debug-alloc@400:30", name="balloon")
                ])
                # The pool survives: a follow-up job on the same pool
                # completes normally on a respawned worker.
                (survivor,) = pool.run([_job("debug-solve", name="after")])

        assert victim.status == OOM_BUDGET
        assert any("oom_budget" in f for f in victim.failures)
        assert survivor.status == SOLVED

        # Post-mortem: recovered journal, kill cause, and the frontier
        # naming the node the solver was ballooning under (400 = 0x190).
        postmortem = victim.postmortem
        assert postmortem is not None
        kill = postmortem["kill"]
        assert kill["cause"] == "oom_budget"
        assert kill["last_rss_bytes"] > budget * 1024 * 1024
        assert postmortem["frontier"]["node"] == "alloc00000190"
        rendered = render_postmortem(postmortem)
        assert "RSS budget exceeded; parent terminated worker" in rendered

        counters = recorder.metrics.snapshot()["counters"]
        assert counters["pool.oom_budget_kills"] == 1
        assert counters["pool.postmortems_recovered"] == 1

    def test_within_budget_job_is_untouched(self):
        with WorkerPool(workers=1, max_retries=0, max_rss_mb=4096) as pool:
            (result,) = pool.run([
                _job("debug-alloc@16:0.3", name="small")
            ])
        assert result.status == UNSOLVED

    def test_no_budget_means_no_kill(self):
        # Gauges-only mode: polling without a budget must never terminate.
        with obs.recording() as recorder:
            with WorkerPool(workers=1, max_retries=0) as pool:
                (result,) = pool.run([
                    _job("debug-alloc@128:0.5", name="unbudgeted")
                ])
        assert result.status == UNSOLVED
        counters = recorder.metrics.snapshot()["counters"]
        assert "pool.oom_budget_kills" not in counters


class TestRssGauges:
    def test_worker_rss_gauges_published(self, monkeypatch):
        monkeypatch.setattr(pool_module, "RSS_POLL_INTERVAL", 0.05)
        with obs.recording() as recorder:
            with WorkerPool(workers=1) as pool:
                pool.run([_job("debug-sleep@0.5", name="watched")])
                stats = pool.pool_stats()
        gauges = recorder.metrics.snapshot()["gauges"]
        assert gauges.get("pool.worker.0.rss_bytes", 0) > 1024 * 1024
        assert gauges.get("pool.peak_rss_bytes", 0) > 1024 * 1024
        # pool_stats mirrors the same numbers for /v1/stats.
        assert stats["max_rss_mb"] is None
        assert all(
            rss > 1024 * 1024 for rss in stats["worker_rss_bytes"].values()
        )

    def test_oom_status_is_not_cached(self, tmp_path):
        """An oom_budget result is budget-dependent, so it must never be
        served from the result cache to a later (differently-budgeted) run."""
        from repro.service.cache import ResultCache
        from repro.service.jobs import TERMINAL_STATUSES

        assert OOM_BUDGET not in TERMINAL_STATUSES
        cache = ResultCache(str(tmp_path / "cache"))
        job = SynthesisJob(
            problem_text="(check-synth)", solver="debug-alloc@400:30",
            hard_timeout=60,
        )
        with WorkerPool(
            workers=1, max_retries=0, max_rss_mb=_budget_mb(100),
            cache=cache,
        ) as pool:
            (result,) = pool.run([job])
        assert result.status == OOM_BUDGET
        assert cache.get(job.fingerprint()) is None
