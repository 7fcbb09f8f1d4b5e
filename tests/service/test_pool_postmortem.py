"""Pool failure paths with flight recorders: killed workers leave post-mortems.

The satellite contract from the issue: a SIGKILLed worker and a
deadline-terminated worker must each yield a non-empty
``JobResult.postmortem`` recovered from the flight journal the dead worker
left behind, and the parent's merged registries must count the recoveries
deterministically.
"""

import os
import signal
import threading
import time

from repro import obs
from repro.service.jobs import CRASHED, TIMEOUT, UNSOLVED, SynthesisJob
from repro.service.pool import WorkerPool


def _job(solver, **kwargs):
    kwargs.setdefault("hard_timeout", 60)
    return SynthesisJob(problem_text="", solver=solver, **kwargs)


class TestSigkilledWorker:
    def test_postmortem_recovered_after_sigkill(self, tmp_path):
        """SIGKILL mid-job: the retried job still carries the post-mortem."""
        flight_dir = str(tmp_path / "flights")
        pool = WorkerPool(workers=1, max_retries=1, flight_dir=flight_dir)
        try:
            killed = {"pid": None}

            def killer():
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    pids = pool.worker_pids()
                    if pids:
                        killed["pid"] = pids[0]
                        # Give the worker a beat to open its journal and
                        # write the job.start note before the kill lands.
                        time.sleep(0.3)
                        os.kill(pids[0], signal.SIGKILL)
                        return
                    time.sleep(0.02)

            thread = threading.Thread(target=killer)
            thread.start()
            with obs.recording() as recorder:
                results = pool.run([_job("debug-sleep@1.5", name="victim")])
            thread.join()
        finally:
            pool.close()
        assert killed["pid"] is not None
        (result,) = results
        assert result.status == UNSOLVED  # retry completed cleanly
        if result.attempts == 1:
            return  # rare: the kill landed before the first assignment
        assert result.postmortem is not None
        assert result.postmortem["meta"]["name"] == "victim"
        assert [n["name"] for n in result.postmortem["notes"]] == [
            "job.start"
        ]
        # No job.end note: the journal proves the worker died mid-job.
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["pool.postmortems_recovered"] == 1

    def test_exhausted_retries_keep_the_postmortem(self, tmp_path):
        flight_dir = str(tmp_path / "flights")
        with WorkerPool(
            workers=1, max_retries=0, flight_dir=flight_dir
        ) as pool:
            (result,) = pool.run([_job("debug-exit@13", name="dying")])
        assert result.status == CRASHED
        assert result.postmortem is not None
        assert result.postmortem["meta"]["solver"] == "debug-exit@13"
        # The journal outlives the run for `dryadsynth postmortem`.
        kept = os.listdir(flight_dir)
        assert len(kept) == 1 and kept[0].endswith(".flight.jsonl")


class TestDeadlineTerminatedWorker:
    def test_hung_worker_yields_postmortem(self, tmp_path):
        flight_dir = str(tmp_path / "flights")
        job = _job("debug-hang", name="stuck", hard_timeout=1.0)
        with obs.recording() as recorder:
            with WorkerPool(
                workers=1, max_retries=0, flight_dir=flight_dir
            ) as pool:
                (result,) = pool.run([job])
        assert result.status == TIMEOUT
        assert result.postmortem is not None
        assert result.postmortem["meta"]["name"] == "stuck"
        notes = [n["name"] for n in result.postmortem["notes"]]
        assert notes == ["job.start"]  # hung before any further record
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["pool.postmortems_recovered"] == 1

    def test_registry_merge_is_deterministic(self, tmp_path):
        """Two identical failing runs produce identical merged counters."""

        def run_once(flight_dir):
            with obs.recording() as recorder:
                with WorkerPool(
                    workers=1, max_retries=0, flight_dir=str(flight_dir)
                ) as pool:
                    pool.run([
                        _job("debug-hang", name="stuck", hard_timeout=1.0),
                        _job("debug-solve", name="fine"),
                    ])
            counters = recorder.metrics.snapshot()["counters"]
            return {
                name: value
                for name, value in counters.items()
                if name.startswith("pool.")
            }

        first = run_once(tmp_path / "a")
        second = run_once(tmp_path / "b")
        assert first == second
        assert first["pool.postmortems_recovered"] == 1
        assert first["pool.jobs_completed"] == 2


class TestJournalLifecycle:
    def test_clean_jobs_leave_no_journals(self, tmp_path):
        flight_dir = str(tmp_path / "flights")
        with WorkerPool(workers=2, flight_dir=flight_dir) as pool:
            results = pool.run(
                [_job("debug-solve", name=f"ok{i}") for i in range(4)]
            )
        assert all(r.postmortem is None for r in results)
        assert os.listdir(flight_dir) == []

    def test_without_flight_dir_no_postmortem(self):
        with WorkerPool(workers=1, max_retries=0) as pool:
            (result,) = pool.run([_job("debug-exit@13")])
        assert result.status == CRASHED
        assert result.postmortem is None


class TestDeadlineKilledSolverFrontier:
    """Satellite: a deadline-killed *real* solver run leaves a post-mortem
    whose forensics frontier names the last active subproblem-graph node."""

    def test_postmortem_names_last_graph_node(self, tmp_path):
        from repro.bench.suite import demo_subset
        from repro.sygus.serializer import problem_to_sygus

        bench = next(b for b in demo_subset() if b.name == "qm-max3")
        job = SynthesisJob(
            problem_text=problem_to_sygus(bench.problem()),
            solver="dryadsynth",
            timeout=60.0,  # soft budget far beyond the hard deadline
            hard_timeout=2.0,
            name="qm-max3",
        )
        flight_dir = str(tmp_path / "flights")
        with WorkerPool(
            workers=1, max_retries=0, flight_dir=flight_dir
        ) as pool:
            (result,) = pool.run([job])
        assert result.status == TIMEOUT
        postmortem = result.postmortem
        assert postmortem is not None
        frontier = postmortem["frontier"]
        assert frontier is not None, (
            "a killed solver run must name the node it was working on"
        )
        assert len(frontier["node"]) == 12
        assert frontier.get("via")
