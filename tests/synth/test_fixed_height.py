"""Tests for fixed-height synthesis (Algorithm 2) and height enumeration."""

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
    sub,
)
from repro.lang.sorts import BOOL, INT
from repro.sygus.grammar import clia_grammar, qm_grammar
from repro.sygus.problem import InvariantProblem, SygusProblem, SynthFun
from repro.synth.encoding import CliaTreeEncoder, GeneralGrammarEncoder
from repro.synth.affine_encoding import AffineSpineEncoder
from repro.synth.fixed_height import (
    HeightEnumerationSynthesizer,
    fixed_height,
    make_encoder,
)
from repro.synth.result import SynthesisStats

x, y = int_var("x"), int_var("y")


def _max2_problem():
    fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
    fx = fun.apply((x, y))
    spec = and_(ge(fx, x), ge(fx, y), or_(eq(fx, x), eq(fx, y)))
    return SygusProblem(fun, spec, (x, y), track="CLIA", name="max2")


class TestMakeEncoder:
    def test_clia_grammar_gets_decision_tree(self):
        problem = _max2_problem()
        assert isinstance(make_encoder(problem.synth_fun, 2), CliaTreeEncoder)

    def test_qm_grammar_gets_affine_encoder(self):
        fun = SynthFun("f", (x, y), INT, qm_grammar((x, y)))
        problem = SygusProblem(fun, eq(fun.apply((x, y)), x), (x, y))
        assert isinstance(make_encoder(problem.synth_fun, 2), AffineSpineEncoder)

    def test_other_grammars_get_general_encoder(self):
        from repro.lang import int_const
        from repro.sygus.grammar import Grammar, nonterminal

        s = nonterminal("S", INT)
        grammar = Grammar(
            {"S": INT}, "S", {"S": [x, int_const(1), add(s, s)]}, {}, (x,)
        )
        fun = SynthFun("f", (x,), INT, grammar)
        problem = SygusProblem(fun, eq(fun.apply((x,)), x), (x,))
        assert isinstance(make_encoder(problem.synth_fun, 2), GeneralGrammarEncoder)


class TestFixedHeight:
    def test_no_height1_max2(self):
        problem = _max2_problem()
        stats = SynthesisStats()
        assert fixed_height(problem, 1, stats=stats) is None
        assert stats.smt_checks >= 1

    def test_height2_solves_max2(self):
        problem = _max2_problem()
        body = fixed_height(problem, 2)
        assert body is not None
        ok, _ = problem.verify(body)
        assert ok

    def test_identity_at_height1(self):
        fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
        problem = SygusProblem(fun, eq(fun.apply((x, y)), add(x, y)), (x, y))
        body = fixed_height(problem, 1)
        assert body is not None
        assert evaluate(body, {"x": 3, "y": 4}) == 7

    def test_shared_examples_persist(self):
        problem = _max2_problem()
        examples = []
        fixed_height(problem, 1, examples=examples)
        assert examples
        count = len(examples)
        body = fixed_height(problem, 2, examples=examples)
        assert body is not None
        assert len(examples) >= count

    def test_bool_synthesis_for_predicates(self):
        grammar = clia_grammar((x,), start_sort=BOOL)
        fun = SynthFun("p", (x,), BOOL, grammar)
        px = fun.apply((x,))
        # p(x) <=> x >= 3 (via both implications).
        spec = and_(implies(px, ge(x, 3)), implies(ge(x, 3), px))
        problem = SygusProblem(fun, spec, (x,))
        body = fixed_height(problem, 1)
        assert body is not None
        assert evaluate(body, {"x": 3}) is True
        assert evaluate(body, {"x": 2}) is False


class TestHeightEnumeration:
    def test_max2_solved_at_minimal_height(self):
        synthesizer = HeightEnumerationSynthesizer(60)
        outcome = synthesizer.synthesize(_max2_problem())
        assert outcome.solved
        assert outcome.stats.max_height_reached == 2
        ok, _ = _max2_problem().verify(outcome.solution.body)
        assert ok

    def test_unreachable_height_gives_up(self):
        # max over 4 variables cannot fit in height 2 decision trees.
        params = tuple(int_var(f"v{i}") for i in range(4))
        fun = SynthFun("f", params, INT, clia_grammar(params))
        fx = fun.apply(params)
        spec = and_(
            *(ge(fx, p) for p in params), or_(*(eq(fx, p) for p in params))
        )
        problem = SygusProblem(fun, spec, params)
        examples = []
        for height in (1, 2):
            assert fixed_height(problem, height, examples=examples) is None

    def test_qm_max2(self):
        fun = SynthFun("f", (x, y), INT, qm_grammar((x, y)))
        spec = eq(fun.apply((x, y)), ite(ge(x, y), x, y))
        problem = SygusProblem(fun, spec, (x, y), track="General")
        synthesizer = HeightEnumerationSynthesizer(90)
        outcome = synthesizer.synthesize(problem)
        assert outcome.solved
        assert problem.synth_fun.grammar.generates(outcome.solution.body)
        ok, _ = problem.verify(outcome.solution.body)
        assert ok

    def test_invariant_problem_via_bool_trees(self):
        inv = InvariantProblem.from_updates(
            (x,),
            eq(x, 0),
            (ite(lt(x, 4), add(x, 1), x),),
            implies(not_(lt(x, 4)), eq(x, 4)),
        )
        problem = inv.to_sygus()
        synthesizer = HeightEnumerationSynthesizer(90)
        outcome = synthesizer.synthesize(problem)
        assert outcome.solved
        ok, _ = problem.verify(outcome.solution.body)
        assert ok
