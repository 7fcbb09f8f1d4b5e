"""End-to-end integration tests: SyGuS text in, verified solution out.

These exercise the full stack — parser, cooperative synthesizer (deduction,
divide-and-conquer, fixed-height enumeration), SMT substrate — on problems
representative of each track.
"""

import pytest

from repro import parse_sygus_text, solve_sygus


def _solve_text(text, timeout=60, name="it"):
    problem = parse_sygus_text(text, name=name)
    outcome = solve_sygus(problem, timeout=timeout)
    return problem, outcome


class TestCliaTrack:
    def test_max2_from_text(self):
        problem, outcome = _solve_text(
            """
            (set-logic LIA)
            (synth-fun max2 ((x Int) (y Int)) Int)
            (declare-var x Int)
            (declare-var y Int)
            (constraint (>= (max2 x y) x))
            (constraint (>= (max2 x y) y))
            (constraint (or (= (max2 x y) x) (= (max2 x y) y)))
            (check-synth)
            """
        )
        assert outcome.solved
        ok, _ = problem.verify(outcome.solution.body)
        assert ok

    def test_commutative_multi_invocation(self):
        problem, outcome = _solve_text(
            """
            (set-logic LIA)
            (synth-fun f ((x Int) (y Int)) Int)
            (declare-var x Int)
            (declare-var y Int)
            (constraint (= (f x y) (f y x)))
            (constraint (>= (f x y) x))
            (constraint (>= (f x y) y))
            (constraint (or (= (f x y) x) (= (f x y) y)))
            (check-synth)
            """
        )
        assert outcome.solved
        ok, _ = problem.verify(outcome.solution.body)
        assert ok

    def test_macro_expansion_and_match(self):
        problem, outcome = _solve_text(
            """
            (set-logic LIA)
            (define-fun shift ((a Int)) Int (+ a 3))
            (synth-fun f ((x Int)) Int)
            (declare-var x Int)
            (constraint (= (f x) (shift (shift x))))
            (check-synth)
            """
        )
        assert outcome.solved
        from repro.lang import evaluate

        assert evaluate(outcome.solution.body, {"x": 10}) == 16


class TestInvTrack:
    def test_inv_constraint_pipeline(self):
        problem, outcome = _solve_text(
            """
            (set-logic LIA)
            (synth-inv inv_fun ((x Int)))
            (define-fun pre_fun ((x Int)) Bool (= x 0))
            (define-fun trans_fun ((x Int) (x! Int)) Bool
              (= x! (ite (< x 32) (+ x 1) x)))
            (define-fun post_fun ((x Int)) Bool (=> (not (< x 32)) (= x 32)))
            (inv-constraint inv_fun pre_fun trans_fun post_fun)
            (check-synth)
            """
        )
        assert outcome.solved
        ok, _ = problem.verify(outcome.solution.body)
        assert ok
        assert outcome.stats.deduction_solved  # the loop summary fires

    def test_two_variable_invariant(self):
        problem, outcome = _solve_text(
            """
            (set-logic LIA)
            (synth-inv inv_fun ((x Int) (y Int)))
            (define-fun pre_fun ((x Int) (y Int)) Bool (and (= x 0) (= y 0)))
            (define-fun trans_fun ((x Int) (y Int) (x! Int) (y! Int)) Bool
              (and (= x! (ite (< x 8) (+ x 1) x))
                   (= y! (ite (< x 8) (+ y 1) y))))
            (define-fun post_fun ((x Int) (y Int)) Bool
              (=> (not (< x 8)) (= y 8)))
            (inv-constraint inv_fun pre_fun trans_fun post_fun)
            (check-synth)
            """,
            timeout=90,
        )
        assert outcome.solved
        ok, _ = problem.verify(outcome.solution.body)
        assert ok


class TestGeneralTrack:
    def test_custom_grammar_from_text(self):
        problem, outcome = _solve_text(
            """
            (set-logic LIA)
            (synth-fun f ((x Int) (y Int)) Int
              ((S Int (x y 0 1 (+ S S) (- S S)))))
            (declare-var x Int)
            (declare-var y Int)
            (constraint (= (f x y) (- (+ x x) y)))
            (check-synth)
            """
        )
        assert outcome.solved
        assert problem.synth_fun.grammar.generates(outcome.solution.body)
        ok, _ = problem.verify(outcome.solution.body)
        assert ok

    def test_qm_operator_grammar_from_text(self):
        problem, outcome = _solve_text(
            """
            (set-logic LIA)
            (define-fun qm ((a Int) (b Int)) Int (ite (< a 0) b a))
            (synth-fun f ((x Int)) Int
              ((S Int (x 0 1 (+ S S) (- S S) (qm S S)))))
            (declare-var x Int)
            (constraint (= (f x) (ite (>= x 0) x (- 0 x))))
            (check-synth)
            """,
            timeout=120,
        )
        assert outcome.solved
        assert problem.synth_fun.grammar.generates(outcome.solution.body)
        ok, _ = problem.verify(outcome.solution.body)
        assert ok


class TestSolveSygusApi:
    def test_multi_function_problem_is_solved(self):
        problem, outcome = _solve_text(
            """
            (set-logic LIA)
            (synth-fun f ((x Int)) Int)
            (synth-fun g ((x Int)) Int)
            (declare-var x Int)
            (constraint (= (f x) (+ x 2)))
            (constraint (= (g x) (- x 2)))
            (check-synth)
            """
        )
        assert outcome.solved
        assert "(define-fun f" in outcome.solution.define_fun()
        assert "(define-fun g" in outcome.solution.define_fun()
        ok, _ = problem.verify(outcome.solution.bodies)
        assert ok
