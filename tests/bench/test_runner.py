"""Tests for the portfolio runner and its result cache."""

import os

from repro.bench.runner import (
    ResultsCache,
    RunResult,
    SOLVER_NAMES,
    make_solver,
    run_benchmark,
    run_suite,
)
from repro.bench.suite import find_benchmark


class TestMakeSolver:
    def test_all_names_construct(self):
        for name in SOLVER_NAMES:
            solver = make_solver(name, timeout=1)
            assert hasattr(solver, "synthesize")

    def test_unknown_name_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            make_solver("z3", timeout=1)


class TestRunBenchmark:
    def test_easy_benchmark_solved(self):
        result = run_benchmark(find_benchmark("linear-comb"), "dryadsynth", 20)
        assert result.solved
        assert result.solution_size is not None
        assert result.track == "CLIA"

    def test_deduction_only_on_trivial(self):
        result = run_benchmark(find_benchmark("count-up-8"), "deduction", 20)
        assert result.solved
        assert result.deduction_solved

    def test_timeout_is_recorded(self):
        result = run_benchmark(find_benchmark("qm-max3"), "eusolver", 1)
        assert not result.solved

    def test_crash_is_recorded_unsolved_not_timed_out(self, monkeypatch):
        from repro.bench import runner

        class Crashing:
            def synthesize(self, problem):
                raise RuntimeError("solver bug")

        monkeypatch.setattr(runner, "make_solver", lambda name, timeout: Crashing())
        result = run_benchmark(find_benchmark("abs"), "dryadsynth", 20)
        assert not result.solved
        assert not result.timed_out
        assert result.solution_size is None
        assert result.error == "RuntimeError: solver bug"

    def test_pool_crash_is_recorded_like_an_in_process_crash(self):
        from repro.bench.runner import _job_to_run_result
        from repro.service.jobs import CRASHED, JobResult

        crashed = JobResult("abs::dryadsynth", "abs", "dryadsynth", CRASHED,
                            wall_time=0.5, error="RuntimeError: solver bug")
        result = _job_to_run_result(find_benchmark("abs"), "dryadsynth", 20,
                                    crashed)
        assert not result.solved
        assert not result.timed_out
        assert result.error == "RuntimeError: solver bug"
        # Past the budget, a crash counts as timed out on both paths.
        crashed.wall_time = 25.0
        assert _job_to_run_result(find_benchmark("abs"), "dryadsynth", 20,
                                  crashed).timed_out

    def test_json_round_trip(self):
        result = RunResult("b", "CLIA", "s", True, 1.5, 7, 3, False, True)
        assert RunResult.from_json(result.to_json()) == result


class TestResultsCache:
    def test_put_get_save_load(self, tmp_path):
        path = os.path.join(tmp_path, "cache.json")
        cache = ResultsCache(path)
        bench = find_benchmark("abs")
        assert cache.get(bench, "dryadsynth", 5) is None
        result = RunResult("abs", "CLIA", "dryadsynth", True, 0.3, 5, 3)
        cache.put(result, 5)
        cache.save()
        reloaded = ResultsCache(path)
        cached = reloaded.get(bench, "dryadsynth", 5)
        assert cached == result

    def test_distinct_timeouts_are_distinct_entries(self, tmp_path):
        path = os.path.join(tmp_path, "cache.json")
        cache = ResultsCache(path)
        bench = find_benchmark("abs")
        cache.put(RunResult("abs", "CLIA", "x", True, 0.3), 5)
        assert cache.get(bench, "x", 10) is None

    def test_corrupt_cache_tolerated(self, tmp_path):
        path = os.path.join(tmp_path, "cache.json")
        with open(path, "w") as f:
            f.write("{ not json")
        cache = ResultsCache(path)
        assert cache.get(find_benchmark("abs"), "x", 5) is None


class TestRunSuite:
    def test_small_portfolio_run(self, tmp_path):
        path = os.path.join(tmp_path, "cache.json")
        benchmarks = [find_benchmark("linear-comb"), find_benchmark("count-up-8")]
        results = run_suite(
            benchmarks,
            solvers=("dryadsynth", "deduction"),
            timeout=20,
            cache=ResultsCache(path),
        )
        assert len(results) == 4
        dryadsynth = [r for r in results if r.solver == "dryadsynth"]
        assert all(r.solved for r in dryadsynth)
        # Second run hits the cache (no new work): identical results.
        again = run_suite(
            benchmarks,
            solvers=("dryadsynth", "deduction"),
            timeout=20,
            cache=ResultsCache(path),
        )
        assert [r.to_json() for r in again] == [r.to_json() for r in results]

    def test_parallel_jobs_match_serial_outcomes(self, tmp_path):
        benchmarks = [find_benchmark("linear-comb"), find_benchmark("count-up-8")]
        serial = run_suite(
            benchmarks,
            solvers=("dryadsynth",),
            timeout=20,
            cache=ResultsCache(os.path.join(tmp_path, "c1.json")),
        )
        parallel = run_suite(
            benchmarks,
            solvers=("dryadsynth",),
            timeout=20,
            cache=ResultsCache(os.path.join(tmp_path, "c2.json")),
            jobs=2,
        )
        assert [(r.benchmark, r.solver, r.solved) for r in serial] == [
            (r.benchmark, r.solver, r.solved) for r in parallel
        ]

    def test_parallel_run_populates_legacy_cache(self, tmp_path):
        path = os.path.join(tmp_path, "cache.json")
        benchmarks = [find_benchmark("linear-comb")]
        run_suite(
            benchmarks,
            solvers=("dryadsynth",),
            timeout=20,
            cache=ResultsCache(path),
            jobs=2,
        )
        reloaded = ResultsCache(path)
        assert reloaded.get(benchmarks[0], "dryadsynth", 20) is not None

    def test_default_campaign_is_answered_from_the_committed_cache(
        self, tmp_path, monkeypatch
    ):
        import shutil

        from repro.bench import runner

        def rerun(benchmark, solver_name, timeout):
            raise AssertionError(f"re-ran {solver_name} on {benchmark.name}")

        monkeypatch.setattr(runner, "run_benchmark", rerun)
        committed = os.path.join(
            os.path.dirname(__file__), "..", "..", "bench_results.json"
        )
        path = os.path.join(tmp_path, "bench_results.json")
        shutil.copy(committed, path)
        # The committed campaign ran every figure's solver at 10 s.
        results = run_suite(timeout=10, cache=ResultsCache(path))
        assert {r.solver for r in results} == set(runner.FIGURE_SOLVERS)


class TestEubackSoundness:
    def test_euback_only_returns_verified_solutions(self):
        """Regression: the EUSolver-backed engine once returned candidates
        that were merely consistent with the collected examples; solutions
        must verify against the full specification."""
        from repro.bench.runner import _euback_engine, make_solver
        from repro.bench.suite import find_benchmark

        bench = find_benchmark("array_search_2")
        problem = bench.problem()
        solver = make_solver("dryadsynth-euback", timeout=15)
        outcome = solver.synthesize(problem)
        if outcome.solution is not None:
            ok, _ = problem.verify(outcome.solution.body)
            assert ok, "euback must never return an unverified candidate"

    def test_euback_engine_verifies_directly(self):
        from repro.bench.runner import _euback_engine
        from repro.bench.suite import find_benchmark
        from repro.synth.result import SynthesisStats

        bench = find_benchmark("abs")
        problem = bench.problem()
        body = _euback_engine(problem, 2, [], None, SynthesisStats())
        if body is not None:
            ok, _ = problem.verify(body)
            assert ok
