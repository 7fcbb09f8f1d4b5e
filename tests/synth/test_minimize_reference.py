"""The screened minimiser returns what the unscreened one returned.

``tests/synth/reference_minimize.py`` keeps the pass as it was before it
screened candidates by the counterexamples of its failed verifies.  Both
run on the same bodies, with the cooperative loop's budget and with the
default one, and must return the identical term; the screen may only save
SMT verifies.
"""

import pytest

from repro.bench.suite import find_benchmark
from repro.lang import add, and_, eq, ge, int_const, int_var, ite, or_, sub
from repro.lang.sorts import INT
from repro.sygus.grammar import clia_grammar
from repro.sygus.problem import SygusProblem, SynthFun
from repro.synth.cooperative import MINIMIZE_BUDGET
from repro.synth.deduction import Deducer
from repro.synth.minimize import minimize_solution

from tests.synth import reference_minimize

x, y = int_var("x"), int_var("y")

#: The deduced towers the merging rules build for these suite problems.
DEDUCED = ("max2", "max3", "max4", "min3", "min4")


def _max2_problem():
    fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
    fx = fun.apply((x, y))
    spec = and_(ge(fx, x), ge(fx, y), or_(eq(fx, x), eq(fx, y)))
    return SygusProblem(fun, spec, (x, y), name="max2")


def _identity_problem():
    fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
    return SygusProblem(fun, eq(fun.apply((x, y)), x), (x, y))


def _bloated_bodies():
    """The bloated bodies of ``test_minimize.py``, with their problems."""
    inner = ite(ge(x, y), x, y)
    max2 = _max2_problem()
    return [
        (max2, ite(ge(inner, inner), inner, ite(ge(y, x), y, x))),
        (max2, inner),
        (_identity_problem(), add(x, sub(y, y))),
        (max2, ite(ge(x, y), add(x, int_const(0)), y)),
        (max2, ite(ge(x, y), ite(ge(x, y), x, y), y)),
    ]


def _deduced(name):
    problem = find_benchmark(name).problem()
    body = Deducer(problem).deduct().solution
    assert body is not None
    return problem, body


@pytest.mark.parametrize("budget", [MINIMIZE_BUDGET, 24])
@pytest.mark.parametrize("name", DEDUCED)
def test_deduced_bodies_minimize_as_before(name, budget):
    problem, body = _deduced(name)
    expected = reference_minimize.minimize_solution(problem, body, budget)
    assert minimize_solution(problem, body, budget) is expected


@pytest.mark.parametrize("budget", [0, 1, 2, 24])
@pytest.mark.parametrize("index", range(len(_bloated_bodies())))
def test_bloated_bodies_minimize_as_before(index, budget):
    problem, body = _bloated_bodies()[index]
    expected = reference_minimize.minimize_solution(problem, body, budget)
    assert minimize_solution(problem, body, budget) is expected


def test_screen_saves_verifies_on_max4_tower(monkeypatch):
    problem, body = _deduced("max4")
    calls = []
    verify = SygusProblem.verify

    def counting_verify(self, candidate, deadline=None):
        calls.append(candidate)
        return verify(self, candidate, deadline)

    monkeypatch.setattr(SygusProblem, "verify", counting_verify)
    expected = reference_minimize.minimize_solution(
        problem, body, MINIMIZE_BUDGET
    )
    unscreened = len(calls)
    del calls[:]
    assert minimize_solution(problem, body, MINIMIZE_BUDGET) is expected
    assert len(calls) < unscreened
