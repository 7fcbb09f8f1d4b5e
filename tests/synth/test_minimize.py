"""Tests for the solution minimisation pass."""

from repro.lang import (
    add,
    and_,
    eq,
    evaluate,
    ge,
    int_const,
    int_var,
    ite,
    or_,
    sub,
)
from repro.lang.sorts import INT
from repro.sygus.grammar import clia_grammar
from repro.sygus.problem import SygusProblem, SynthFun
from repro.synth.minimize import minimize_solution

x, y = int_var("x"), int_var("y")


def _max2_problem():
    fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
    fx = fun.apply((x, y))
    spec = and_(ge(fx, x), ge(fx, y), or_(eq(fx, x), eq(fx, y)))
    return SygusProblem(fun, spec, (x, y), name="max2")


class TestMinimizeSolution:
    def test_redundant_ite_tower_shrinks(self):
        """The kind of output the merging rules produce for max2."""
        problem = _max2_problem()
        inner = ite(ge(x, y), x, y)
        bloated = ite(ge(inner, inner), inner, ite(ge(y, x), y, x))
        ok, _ = problem.verify(bloated)
        assert ok
        minimized = minimize_solution(problem, bloated)
        ok, _ = problem.verify(minimized)
        assert ok
        assert minimized.size <= inner.size

    def test_already_minimal_is_stable(self):
        problem = _max2_problem()
        body = ite(ge(x, y), x, y)
        minimized = minimize_solution(problem, body)
        ok, _ = problem.verify(minimized)
        assert ok
        assert minimized.size <= body.size

    def test_dead_additions_removed(self):
        fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
        problem = SygusProblem(fun, eq(fun.apply((x, y)), x), (x, y))
        bloated = add(x, sub(y, y))  # x + (y - y)
        minimized = minimize_solution(problem, bloated)
        assert minimized is x

    def test_budget_limits_smt_calls(self):
        problem = _max2_problem()
        body = ite(ge(x, y), x, y)
        # Zero budget: the pass may only simplify, never re-verify.
        minimized = minimize_solution(problem, body, max_checks=0)
        ok, _ = problem.verify(minimized)
        assert ok

    def test_result_stays_in_grammar(self):
        problem = _max2_problem()
        bloated = ite(ge(x, y), add(x, int_const(0)), y)
        minimized = minimize_solution(problem, bloated)
        assert problem.synth_fun.grammar.generates(minimized)

    def test_semantics_preserved_pointwise(self):
        problem = _max2_problem()
        bloated = ite(ge(x, y), ite(ge(x, y), x, y), y)
        minimized = minimize_solution(problem, bloated)
        for a in range(-3, 4):
            for b in range(-3, 4):
                assert evaluate(minimized, {"x": a, "y": b}) == max(a, b)


class TestCooperativeIntegration:
    def test_minimization_reduces_deduction_output(self):
        from repro.synth.cooperative import MINIMIZE_BUDGET
        from repro.synth.deduction import Deducer

        problem = _max2_problem()
        deduced = Deducer(problem).deduct().solution
        assert deduced is not None
        small = minimize_solution(problem, deduced, MINIMIZE_BUDGET)
        ok, _ = problem.verify(small)
        assert ok
        assert small.size <= deduced.size
