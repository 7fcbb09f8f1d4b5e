"""Tests for SynthesisJob / JobResult and worker-side execution."""

import json

import pytest

from repro.bench.suite import find_benchmark
from repro.service.jobs import (
    CRASHED,
    SOLVED,
    TIMEOUT,
    UNSOLVED,
    JobResult,
    SynthesisJob,
    execute_job,
    parse_solution_text,
)

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


MULTI_SL = """
(set-logic LIA)
(synth-fun f ((x Int)) Int)
(synth-fun g ((x Int)) Int)
(declare-var x Int)
(constraint (= (f x) (+ x 2)))
(constraint (= (g x) (- x 2)))
(check-synth)
"""

# Coupled: one constraint mentions both functions, so they are solved
# jointly, which takes far longer than a 0.3 s budget.
COUPLED_SL = """
(set-logic LIA)
(synth-fun bigger ((x Int) (y Int)) Int)
(synth-fun smaller ((x Int) (y Int)) Int)
(declare-var x Int)
(declare-var y Int)
(constraint (>= (bigger x y) x))
(constraint (>= (bigger x y) y))
(constraint (<= (smaller x y) x))
(constraint (<= (smaller x y) y))
(constraint (= (+ (bigger x y) (smaller x y)) (+ x y)))
(check-synth)
"""


class TestSynthesisJob:
    def test_from_problem_round_trips_as_text(self):
        problem = find_benchmark("max2").problem()
        job = SynthesisJob.from_problem(problem, solver="cegqi", timeout=5)
        assert "(synth-fun" in job.problem_text
        assert job.name == "max2"
        assert job.timeout == 5

    def test_effective_hard_timeout_derived_from_soft(self):
        job = SynthesisJob(problem_text="", timeout=10)
        assert job.effective_hard_timeout == 10 * 1.5 + 5.0
        explicit = SynthesisJob(problem_text="", timeout=10, hard_timeout=2)
        assert explicit.effective_hard_timeout == 2
        unlimited = SynthesisJob(problem_text="")
        assert unlimited.effective_hard_timeout is None

    def test_job_is_picklable(self):
        import pickle

        job = SynthesisJob(problem_text=MAX2_SL, solver="dryadsynth", timeout=1)
        clone = pickle.loads(pickle.dumps(job))
        assert clone.problem_text == job.problem_text
        assert clone.timeout == job.timeout


class TestJobResult:
    def test_json_round_trip(self):
        result = JobResult(
            "j1",
            "max2",
            "dryadsynth",
            SOLVED,
            solution_text="(define-fun f ((x Int)) Int x)",
            solution_size=1,
            wall_time=0.5,
            stats={"smt_checks": 3},
            attempts=2,
            failures=["crashed: boom"],
        )
        data = json.loads(json.dumps(result.to_json()))
        clone = JobResult.from_json(data)
        assert clone == result
        assert clone.solved


class TestExecuteJob:
    def test_solves_real_problem(self):
        job = SynthesisJob(problem_text=MAX2_SL, solver="dryadsynth", timeout=30)
        result = execute_job(job)
        assert result.status == SOLVED
        assert result.solution_text.startswith("(define-fun f")
        assert result.solution_size >= 1
        assert result.stats["smt_checks"] >= 0

    def test_solution_text_parses_back_and_verifies(self):
        from repro.sygus.parser import parse_sygus_text

        problem = parse_sygus_text(MAX2_SL)
        job = SynthesisJob(problem_text=MAX2_SL, solver="dryadsynth", timeout=30)
        result = execute_job(job)
        body = parse_solution_text(problem, result.solution_text)
        ok, _ = problem.verify(body)
        assert ok

    def test_unparsable_problem_is_crashed_not_raised(self):
        job = SynthesisJob(problem_text="(this is not sygus", solver="dryadsynth")
        result = execute_job(job)
        assert result.status == CRASHED
        assert result.error

    def test_timeout_reported(self):
        job = SynthesisJob(
            problem_text=MAX2_SL,
            solver="height-enum",
            timeout=0.0001,
        )
        result = execute_job(job)
        assert result.status in (TIMEOUT, UNSOLVED)

    def test_fixed_height_solver(self):
        job = SynthesisJob(
            problem_text=MAX2_SL, solver="fixed-height@2", timeout=30
        )
        result = execute_job(job)
        assert result.status == SOLVED
        assert result.stats["heights_tried"] == 1

    def test_debug_raise_is_contained(self):
        result = execute_job(SynthesisJob(problem_text="", solver="debug-raise"))
        assert result.status == CRASHED
        assert "debug-raise" in result.error

    def test_multi_function_problem(self):
        result = execute_job(
            SynthesisJob(problem_text=MULTI_SL, solver="dryadsynth", timeout=30)
        )
        assert result.status == SOLVED
        assert "(define-fun f" in result.solution_text
        assert "(define-fun g" in result.solution_text
        # f = (+ x 2) and g = (- x 2): three nodes each, two levels high.
        assert result.solution_size == 6
        assert result.solution_height == 2

    def test_multi_function_deadline_is_a_timeout(self):
        result = execute_job(
            SynthesisJob(problem_text=COUPLED_SL, solver="dryadsynth",
                         timeout=0.3)
        )
        assert result.status == TIMEOUT


class TestParseSolutionText:
    def test_rejects_non_define_fun(self):
        from repro.sygus.parser import SygusParseError, parse_sygus_text

        problem = parse_sygus_text(MAX2_SL)
        with pytest.raises(SygusParseError):
            parse_solution_text(problem, "(constraint true)")

    def test_keeps_interpreted_operators(self):
        problem = find_benchmark("double-2").problem()
        text = "(define-fun f ((x Int)) Int (double (double x)))"
        body = parse_solution_text(problem, text)
        ok, _ = problem.verify(body)
        assert ok
