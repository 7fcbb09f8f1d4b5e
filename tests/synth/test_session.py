"""Tests for fixed-height sessions."""

from repro.lang import and_, eq, ge, int_var, or_
from repro.lang.sorts import INT
from repro.sygus.grammar import clia_grammar
from repro.sygus.problem import SygusProblem, SynthFun
from repro.synth.fixed_height import FixedHeightSession, fixed_height

x, y = int_var("x"), int_var("y")


def _max2_problem():
    fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
    fx = fun.apply((x, y))
    spec = and_(ge(fx, x), ge(fx, y), or_(eq(fx, x), eq(fx, y)))
    return SygusProblem(fun, spec, (x, y), name="max2")


class TestSessionLifecycle:
    def test_solves_in_one_run(self):
        problem = _max2_problem()
        session = FixedHeightSession(problem, 2)
        body = session.run([])
        assert body is not None
        ok, _ = problem.verify(body)
        assert ok

    def test_exhaustion_is_sticky(self):
        problem = _max2_problem()
        session = FixedHeightSession(problem, 1)
        assert session.run([]) is None
        assert session.exhausted

    def test_fixed_height_solves_in_one_call(self):
        problem = _max2_problem()
        assert fixed_height(problem, 2, examples=[]) is not None
