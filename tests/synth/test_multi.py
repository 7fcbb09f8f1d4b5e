"""Tests for multi-function synthesis (the Section 2.1 remark)."""

from repro.lang import add, and_, eq, evaluate, ge, int_var, le, or_, sub
from repro.lang.sorts import INT
from repro.sygus.grammar import clia_grammar
from repro.sygus.multi import MultiSygusProblem
from repro.sygus.problem import SynthFun
from repro.synth.multi import MultiFunctionSynthesizer

x, y = int_var("x"), int_var("y")


def _funs():
    f = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
    g = SynthFun("g", (x, y), INT, clia_grammar((x, y)))
    return f, g


class TestMultiProblem:
    def test_duplicate_names_rejected(self):
        import pytest

        f, _ = _funs()
        with pytest.raises(ValueError):
            MultiSygusProblem((f, f), eq(x, x), (x, y))

    def test_instantiate_all(self):
        f, g = _funs()
        spec = eq(f.apply((x, y)), g.apply((y, x)))
        problem = MultiSygusProblem((f, g), spec, (x, y))
        from repro.lang.traversal import contains_app

        instantiated = problem.instantiate({"f": add(x, y), "g": sub(x, y)})
        assert not contains_app(instantiated, "f")
        assert not contains_app(instantiated, "g")

    def test_joint_verify(self):
        f, g = _funs()
        # f computes max, g computes min, and f + g = x + y.
        fx, gx = f.apply((x, y)), g.apply((x, y))
        spec = and_(
            ge(fx, x),
            ge(fx, y),
            le(gx, x),
            le(gx, y),
            eq(add(fx, gx), add(x, y)),
        )
        problem = MultiSygusProblem((f, g), spec, (x, y))
        from repro.lang import ite

        good = {"f": ite(ge(x, y), x, y), "g": ite(ge(x, y), y, x)}
        ok, _ = problem.verify(good)
        assert ok
        bad = {"f": x, "g": y}
        ok, cex = problem.verify(bad)
        assert not ok and cex is not None

    def test_first_violation_screens_joint_candidates(self):
        f, g = _funs()
        fx, gx = f.apply((x, y)), g.apply((x, y))
        spec = and_(ge(fx, x), ge(fx, y), eq(add(fx, gx), add(x, y)))
        problem = MultiSygusProblem((f, g), spec, (x, y))
        from repro.lang import ite

        bad = {"f": x, "g": y}
        examples = [{"x": 5, "y": 1}, {"x": 1, "y": 5}, {"x": 0, "y": 3}]
        assert problem.first_violation(bad, examples) == {"x": 1, "y": 5}
        good = {"f": ite(ge(x, y), x, y), "g": ite(ge(x, y), y, x)}
        assert problem.first_violation(good, examples) is None
        # The verifier's counterexample is one the screen also refutes.
        ok, cex = problem.verify(bad)
        assert not ok
        assert problem.first_violation(bad, [examples[0], cex]) == cex
        assert problem.first_violation(good, [cex]) is None

    def test_split_independent_partitions(self):
        f, g = _funs()
        spec = and_(
            eq(f.apply((x, y)), add(x, y)),
            eq(g.apply((x, y)), sub(x, y)),
        )
        problem = MultiSygusProblem((f, g), spec, (x, y))
        projections = problem.split_independent()
        assert projections is not None and len(projections) == 2
        assert projections[0].fun_name == "f"
        assert projections[1].fun_name == "g"

    def test_split_fails_on_coupled_constraints(self):
        f, g = _funs()
        spec = eq(f.apply((x, y)), g.apply((x, y)))
        problem = MultiSygusProblem((f, g), spec, (x, y))
        assert problem.split_independent() is None


class TestMultiSynthesis:
    def test_independent_functions_solved(self):
        f, g = _funs()
        spec = and_(
            eq(f.apply((x, y)), add(x, y)),
            eq(g.apply((x, y)), sub(x, y)),
        )
        problem = MultiSygusProblem((f, g), spec, (x, y), name="pair")
        solution = MultiFunctionSynthesizer(60).synthesize(problem).solution
        assert solution is not None
        assert evaluate(solution.bodies["f"], {"x": 3, "y": 4}) == 7
        assert evaluate(solution.bodies["g"], {"x": 3, "y": 4}) == -1
        assert len(solution.define_fun().splitlines()) == 2

    def test_coupled_functions_solved_jointly(self):
        f, g = _funs()
        fx, gx = f.apply((x, y)), g.apply((x, y))
        # Coupled: g must be f's complement with respect to x + y.
        spec = and_(
            eq(fx, x),
            eq(add(fx, gx), add(x, y)),
        )
        problem = MultiSygusProblem((f, g), spec, (x, y), name="coupled")
        outcome = MultiFunctionSynthesizer(90).synthesize(problem)
        assert outcome.solution is not None
        ok, _ = problem.verify(outcome.solution.bodies)
        assert ok
        # The joint search is the fixed-height session: its work is counted.
        assert outcome.stats.max_height_reached >= 1
        assert outcome.stats.smt_rounds > 0

    def test_coupled_functions_need_a_constant_outside_the_spec(self):
        # f(x) > x + 1 needs a constant of at least 2, wider than the spec's
        # own constant 1: the joint search must widen its constant bound.
        from repro.sygus.parser import parse_sygus_text

        problem = parse_sygus_text(
            """
            (set-logic LIA)
            (synth-fun f ((x Int)) Int)
            (synth-fun g ((x Int)) Int)
            (declare-var x Int)
            (constraint (> (f x) (+ x 1)))
            (constraint (= (+ (f x) (g x)) (+ x x)))
            (check-synth)
            """
        )
        assert problem.split_independent() is None
        outcome = MultiFunctionSynthesizer(60).synthesize(problem)
        assert outcome.solution is not None
        ok, _ = problem.verify(outcome.solution.bodies)
        assert ok

    def test_nested_calls_end_unsolved(self):
        # The symbolic encoding cannot take f(g(x)): the search reports no
        # solution instead of raising.
        from repro.sygus.parser import parse_sygus_text

        problem = parse_sygus_text(
            """
            (set-logic LIA)
            (synth-fun f ((x Int)) Int)
            (synth-fun g ((x Int)) Int)
            (declare-var x Int)
            (constraint (= (f (g x)) (+ x 1)))
            (check-synth)
            """
        )
        outcome = MultiFunctionSynthesizer(10).synthesize(problem)
        assert outcome.solution is None
        assert not outcome.timed_out

    def test_parser_produces_multi_problem(self):
        from repro.sygus.parser import parse_sygus_text

        problem = parse_sygus_text(
            """
            (set-logic LIA)
            (synth-fun f ((x Int)) Int)
            (synth-fun g ((x Int)) Int)
            (declare-var x Int)
            (constraint (= (f x) (+ x 1)))
            (constraint (= (g x) (- x 1)))
            (check-synth)
            """
        )
        assert isinstance(problem, MultiSygusProblem)
        assert problem.fun_names == ("f", "g")
        solution = MultiFunctionSynthesizer(60).synthesize(problem).solution
        assert solution is not None
        assert evaluate(solution.bodies["f"], {"x": 10}) == 11
        assert evaluate(solution.bodies["g"], {"x": 10}) == 9
