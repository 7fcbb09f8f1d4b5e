"""Tests for the EUSolver-style enumerative baseline."""

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
from repro.sygus.grammar import clia_grammar, qm_grammar
from repro.sygus.problem import SygusProblem, SynthFun
from repro.baselines.eusolver import (
    EnumerativeSolver,
    TermEnumerator,
    _compositions,
    spec_constants,
)

x, y = int_var("x"), int_var("y")


class TestCompositions:
    def test_single_part(self):
        assert list(_compositions(3, 1)) == [(3,)]

    def test_two_parts(self):
        assert list(_compositions(3, 2)) == [(1, 2), (2, 1)]

    def test_parts_exceed_total(self):
        assert list(_compositions(1, 2)) == []


class TestSpecConstants:
    def test_harvests_spec_literals(self):
        fun = SynthFun("f", (x,), INT, clia_grammar((x,)))
        spec = eq(fun.apply((x,)), add(x, 7))
        problem = SygusProblem(fun, spec, (x,))
        constants = spec_constants(problem)
        assert {0, 1, 6, 7, 8} <= set(constants)


class TestTermEnumerator:
    def test_size_one_terms(self):
        grammar = qm_grammar((x, y))
        enumerator = TermEnumerator(grammar, [0, 1], [], {})
        terms = enumerator.terms("S", 1)
        assert x in terms and y in terms and int_const(0) in terms

    def test_observational_equivalence_prunes(self):
        grammar = clia_grammar((x,))
        examples = [{"x": 0}, {"x": 1}, {"x": -2}]
        enumerator = TermEnumerator(grammar, [0, 1], examples, {})
        # x + 0 and 0 + x and x are observationally equal; only one survives
        # per signature per size class.
        size2 = enumerator.terms("S", 1)
        signatures = set()
        for term in size2:
            signature = tuple(evaluate(term, e) for e in examples)
            assert signature not in signatures
            signatures.add(signature)

    def test_compound_terms_appear_at_right_size(self):
        grammar = qm_grammar((x, y))
        enumerator = TermEnumerator(grammar, [0, 1], [], {})
        size3 = enumerator.terms("S", 3)
        assert any(t.kind.value == "+" for t in size3)


class TestEnumerativeSolver:
    def test_identity(self):
        fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
        problem = SygusProblem(fun, eq(fun.apply((x, y)), x), (x, y))
        outcome = EnumerativeSolver(30).synthesize(problem)
        assert outcome.solved
        assert outcome.solution.body is x

    def test_max2_with_unification(self):
        fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
        fx = fun.apply((x, y))
        spec = and_(ge(fx, x), ge(fx, y), or_(eq(fx, x), eq(fx, y)))
        problem = SygusProblem(fun, spec, (x, y), name="max2")
        outcome = EnumerativeSolver(60).synthesize(problem)
        assert outcome.solved
        ok, _ = problem.verify(outcome.solution.body)
        assert ok
        # Enumeration finds minimal solutions (Table 1's story).
        assert outcome.solution.size <= 6

    def test_qm_grammar_search(self):
        fun = SynthFun("f", (x,), INT, qm_grammar((x,)))
        # f(x) = qm(x, 0 - x) = |x|.
        spec = eq(fun.apply((x,)), ite(ge(x, 0), x, sub(0, x)))
        problem = SygusProblem(fun, spec, (x,), name="qm-abs")
        outcome = EnumerativeSolver(60).synthesize(problem)
        assert outcome.solved
        assert problem.synth_fun.grammar.generates(outcome.solution.body)

    def test_size_cap_gives_up(self):
        params = tuple(int_var(f"v{i}") for i in range(4))
        fun = SynthFun("f", params, INT, clia_grammar(params))
        fx = fun.apply(params)
        spec = and_(
            *(ge(fx, p) for p in params), or_(*(eq(fx, p) for p in params))
        )
        problem = SygusProblem(fun, spec, params, name="max4")
        solver = EnumerativeSolver(20, max_size=3)
        outcome = solver.synthesize(problem)
        assert not outcome.solved
