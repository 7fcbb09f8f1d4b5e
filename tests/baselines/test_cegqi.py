"""Tests for the CVC4/CEGQI-style baseline."""

from repro.lang import (
    add,
    and_,
    eq,
    evaluate,
    ge,
    implies,
    int_var,
    ite,
    le,
    lt,
    not_,
    or_,
)
from repro.lang.sorts import INT
from repro.sygus.grammar import clia_grammar, qm_grammar
from repro.sygus.problem import InvariantProblem, SygusProblem, SynthFun
from repro.baselines.cegqi import CegqiSolver

x, y, z = int_var("x"), int_var("y"), int_var("z")


def _max_problem(params):
    fun = SynthFun("f", tuple(params), INT, clia_grammar(tuple(params)))
    fx = fun.apply(tuple(params))
    spec = and_(
        *(ge(fx, p) for p in params), or_(*(eq(fx, p) for p in params))
    )
    return SygusProblem(fun, spec, tuple(params), name=f"max{len(params)}")


class TestApplicability:
    def test_single_invocation_clia_applicable(self):
        solver = CegqiSolver()
        assert solver._applicable(_max_problem((x, y)))

    def test_multi_invocation_not_applicable(self):
        fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
        spec = eq(fun.apply((x, y)), fun.apply((y, x)))
        problem = SygusProblem(fun, spec, (x, y))
        assert not CegqiSolver()._applicable(problem)

    def test_custom_grammar_not_applicable(self):
        fun = SynthFun("f", (x, y), INT, qm_grammar((x, y)))
        problem = SygusProblem(fun, eq(fun.apply((x, y)), x), (x, y))
        assert not CegqiSolver()._applicable(problem)

    def test_inv_track_not_applicable(self):
        inv = InvariantProblem.from_updates(
            (x,), eq(x, 0), (add(x, 1),), ge(x, 0)
        )
        assert not CegqiSolver()._applicable(inv.to_sygus())


class TestCegqiSolving:
    def test_max2_fast_with_large_solution(self):
        outcome = CegqiSolver(30).synthesize(
            _max_problem((x, y))
        )
        assert outcome.solved
        problem = _max_problem((x, y))
        ok, _ = problem.verify(outcome.solution.body)
        assert ok
        # The behavioural signature: cascades are big (Table 1).
        assert outcome.solution.time_seconds < 10

    def test_max3(self):
        outcome = CegqiSolver(60).synthesize(
            _max_problem((x, y, z))
        )
        assert outcome.solved
        ok, _ = _max_problem((x, y, z)).verify(outcome.solution.body)
        assert ok

    def test_conditional_reference(self):
        fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
        spec = eq(fun.apply((x, y)), ite(lt(x, 0), y, x))
        problem = SygusProblem(fun, spec, (x, y))
        outcome = CegqiSolver(30).synthesize(problem)
        assert outcome.solved
        ok, _ = problem.verify(outcome.solution.body)
        assert ok

    def test_witness_harvesting_offsets(self):
        # The solution needs x + 1, which only appears via the +-1 offsets.
        fun = SynthFun("f", (x,), INT, clia_grammar((x,)))
        spec = and_(ge(fun.apply((x,)), add(x, 1)), le(fun.apply((x,)), add(x, 1)))
        problem = SygusProblem(fun, spec, (x,))
        outcome = CegqiSolver(30).synthesize(problem)
        assert outcome.solved
        assert evaluate(outcome.solution.body, {"x": 10}) == 11

    def test_fallback_on_general_grammar(self):
        fun = SynthFun("f", (x,), INT, qm_grammar((x,)))
        problem = SygusProblem(fun, eq(fun.apply((x,)), x), (x,))
        outcome = CegqiSolver(30).synthesize(problem)
        # The enumerative fallback finds the identity immediately.
        assert outcome.solved
        assert outcome.solution.body is x
