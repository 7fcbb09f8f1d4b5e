"""Tests for the deductive component (Figures 7-9)."""

import time

import pytest

from repro.lang import (
    add,
    and_,
    apply_fn,
    eq,
    evaluate,
    ge,
    gt,
    implies,
    int_const,
    int_var,
    ite,
    le,
    lt,
    not_,
    or_,
    sub,
)
from repro.lang.sorts import BOOL, INT
from repro.sygus.grammar import (
    Grammar,
    InterpretedFunction,
    clia_grammar,
    nonterminal,
    qm_grammar,
)
from repro.sygus.problem import SygusProblem, SynthFun
from repro.synth.deduction import Deducer, match_rewrite, _to_nnf, _to_cnf

x, y, z = int_var("x"), int_var("y"), int_var("z")


def _problem(spec_builder, params=(x, y), grammar=None, **kwargs):
    params = tuple(params)
    grammar = grammar or clia_grammar(params)
    fun = SynthFun("f", params, grammar.start_sort, grammar)
    spec = spec_builder(fun)
    return SygusProblem(fun, spec, params, **kwargs)


class TestNnfCnf:
    def test_nnf_pushes_negation(self):
        term = not_(and_(ge(x, 0), le(y, 0)))
        nnf = _to_nnf(term, True)
        for a in range(-2, 3):
            for b in range(-2, 3):
                env = {"x": a, "y": b}
                assert evaluate(nnf, env) == evaluate(term, env)

    def test_nnf_eliminates_implication(self):
        term = implies(ge(x, 0), ge(y, 0))
        nnf = _to_nnf(term, True)
        from repro.lang import Kind
        from repro.lang.traversal import subexpressions

        assert all(t.kind is not Kind.IMPLIES for t in subexpressions(nnf))

    def test_cnf_distributes(self):
        term = or_(and_(ge(x, 0), ge(y, 0)), ge(x, 5))
        clauses = _to_cnf(term)
        assert len(clauses) == 2

    def test_cnf_budget(self):
        # 2^10 distribution exceeds the clause budget.
        big = and_(
            *(or_(and_(ge(x, i), ge(y, i)), and_(le(x, i), le(y, i))) for i in range(10))
        )
        nnf = _to_nnf(big, True)
        assert _to_cnf(nnf) is None or len(_to_cnf(nnf)) <= 128


class TestIntDeduction:
    def test_reference_implementation_solved(self):
        """IntEq via Eq: f(x,y) = x + y is forced and fits the grammar."""
        problem = _problem(lambda f: eq(f.apply((x, y)), add(x, y)))
        result = Deducer(problem).deduct()
        assert result.solution is not None
        assert evaluate(result.solution, {"x": 2, "y": 3}) == 5

    def test_max2_solved_by_merging(self):
        """GeMax/LeMax/Eq merging (the Figure 9 pipeline, n=2)."""
        problem = _problem(
            lambda f: and_(
                ge(f.apply((x, y)), x),
                ge(f.apply((x, y)), y),
                or_(eq(f.apply((x, y)), x), eq(f.apply((x, y)), y)),
            )
        )
        result = Deducer(problem).deduct()
        assert result.solution is not None
        for a in range(-3, 4):
            for b in range(-3, 4):
                assert evaluate(result.solution, {"x": a, "y": b}) == max(a, b)

    def test_max3_solved_by_merging(self):
        """The full Figure 9 example (n=3)."""
        problem = _problem(
            lambda f: and_(
                ge(f.apply((x, y, z)), x),
                ge(f.apply((x, y, z)), y),
                ge(f.apply((x, y, z)), z),
                or_(
                    eq(f.apply((x, y, z)), x),
                    eq(f.apply((x, y, z)), y),
                    eq(f.apply((x, y, z)), z),
                ),
            ),
            params=(x, y, z),
            grammar=clia_grammar((x, y, z)),
        )
        result = Deducer(problem).deduct()
        assert result.solution is not None
        for a in (-2, 0, 5):
            for b in (-1, 3):
                for c in (0, 4):
                    assert (
                        evaluate(result.solution, {"x": a, "y": b, "z": c})
                        == max(a, b, c)
                    )

    def test_min2_solved_by_merging(self):
        problem = _problem(
            lambda f: and_(
                le(f.apply((x, y)), x),
                le(f.apply((x, y)), y),
                or_(eq(f.apply((x, y)), x), eq(f.apply((x, y)), y)),
            )
        )
        result = Deducer(problem).deduct()
        assert result.solution is not None
        assert evaluate(result.solution, {"x": 2, "y": -7}) == -7

    def test_unsatisfiable_residue_not_solved(self):
        """A forced implementation that violates another conjunct fails."""
        problem = _problem(
            lambda f: and_(eq(f.apply((x, y)), x), ge(f.apply((x, y)), add(x, 1)))
        )
        result = Deducer(problem).deduct()
        assert result.solution is None

    def test_contradictory_spec_reported_unsolvable(self):
        problem = _problem(lambda f: lt(x, x))
        result = Deducer(problem).deduct()
        assert result.unsolvable

    def test_f_free_valid_spec_solved_with_any_member(self):
        problem = _problem(lambda f: ge(add(x, 1), x))
        result = Deducer(problem).deduct()
        assert result.solution is not None


class TestMatchRule:
    def _double_grammar(self):
        x1 = int_var("x1")
        double = InterpretedFunction("double", (x1,), add(x1, x1))
        s = nonterminal("S", INT)
        rules = [x, int_const(0), int_const(1), apply_fn("double", (s,), INT)]
        return Grammar({"S": INT}, "S", {"S": rules}, {"double": double}, (x,))

    def test_double_double_match(self):
        """The paper's Match example: x+x+x+x becomes double(double(x))."""
        grammar = self._double_grammar()
        problem = _problem(
            lambda f: eq(f.apply((x,)), add(x, x, x, x)),
            params=(x,),
            grammar=grammar,
        )
        result = Deducer(problem).deduct()
        assert result.solution is not None
        assert grammar.generates(result.solution)
        funcs = {"double": (grammar.interpreted["double"].params,
                            grammar.interpreted["double"].body)}
        assert evaluate(result.solution, {"x": 5}, funcs) == 20

    def test_match_rewrite_failure_returns_unfit(self):
        grammar = self._double_grammar()
        # x + 1 + 1 + 1 is not expressible by double/0/1/x alone... actually
        # it is not foldable by double's pattern, so match keeps it as-is.
        rewritten = match_rewrite(add(x, 1, 1, 1), grammar)
        assert rewritten is None or not grammar.generates(rewritten)

    def test_qm_fold(self):
        grammar = qm_grammar((x, y))
        # ite(x < 0, y, x) is exactly qm's definition body.
        body = ite(lt(x, 0), y, x)
        rewritten = match_rewrite(body, grammar)
        assert rewritten is not None
        assert grammar.generates(rewritten)


class TestBoolDeduction:
    def test_predicate_envelope_solved(self):
        """BoolNeg/BoolPos: the conjunction of upper bounds works."""
        grammar = clia_grammar((x,), start_sort=BOOL)
        fun = SynthFun("f", (x,), BOOL, grammar)
        fx = fun.apply((x,))
        # f(x) -> x >= 0, f(x) -> x <= 10, and (x = 5) -> f(x).
        spec = and_(
            implies(fx, ge(x, 0)),
            implies(fx, le(x, 10)),
            implies(eq(x, 5), fx),
        )
        problem = SygusProblem(fun, spec, (x,))
        result = Deducer(problem).deduct()
        assert result.solution is not None
        assert evaluate(result.solution, {"x": 5}) is True
        assert evaluate(result.solution, {"x": -1}) is False

    def test_unsatisfiable_envelope_fails(self):
        grammar = clia_grammar((x,), start_sort=BOOL)
        fun = SynthFun("f", (x,), BOOL, grammar)
        fx = fun.apply((x,))
        # Upper bounds force f ⊆ [0,10] but x = 20 must be inside: impossible.
        spec = and_(
            implies(fx, ge(x, 0)),
            implies(fx, le(x, 10)),
            implies(eq(x, 20), fx),
        )
        problem = SygusProblem(fun, spec, (x,))
        result = Deducer(problem).deduct()
        assert result.solution is None


class TestRemoveArgRule:
    def test_constant_argument_dropped(self):
        """RemoveArg: f(x, 5, y) with the middle argument always 5."""
        c5 = int_const(5)
        problem = _problem(
            lambda f: eq(f.apply((x, c5, y)), add(x, y)),
            params=(x, int_var("unused"), y),
            grammar=clia_grammar((x, int_var("unused"), y)),
        )
        result = Deducer(problem).deduct()
        assert result.solution is not None
        assert evaluate(result.solution, {"x": 2, "unused": 0, "y": 3}) == 5

    def test_varying_argument_not_dropped(self):
        problem = _problem(lambda f: eq(f.apply((x, y)), add(x, y)))
        result = Deducer(problem).deduct()
        # Still solved (by IntEq), just not through RemoveArg.
        assert result.solution is not None


class TestRemoveVarRule:
    def test_insensitive_variable_pinned(self):
        """RemoveVar: the spec mentions z but does not depend on it."""
        problem = _problem(
            lambda f: and_(
                eq(f.apply((x, y)), add(x, y)),
                or_(ge(z, 0), lt(z, 0)),  # tautological use of z
            ),
            params=(x, y),
            grammar=clia_grammar((x, y)),
        )
        deducer = Deducer(problem)
        simplified = deducer._apply_remove_var(problem.spec)
        from repro.lang.traversal import free_vars

        assert z not in free_vars(simplified)

    def test_sensitive_variable_kept(self):
        problem = _problem(lambda f: ge(f.apply((x, y)), y))
        deducer = Deducer(problem)
        simplified = deducer._apply_remove_var(problem.spec)
        from repro.lang.traversal import free_vars

        assert y in free_vars(simplified)


class TestNotEqRule:
    def test_gap_of_two_becomes_disequality(self):
        from repro.synth.deduction import FBound, _merge_within_clause

        fx = _problem(lambda f: ge(x, 0)).synth_fun.apply((x, y))
        merged = _merge_within_clause(
            [FBound(fx, True, add(y, 2)), FBound(fx, False, y)]
        )
        assert len(merged) == 1
        literal = merged[0]
        # not (f(x, y) = y + 1), modulo linear normalisation
        from repro.lang import Kind
        from repro.synth.deduction import _constant_gap

        assert literal.kind is Kind.NOT
        assert _constant_gap(literal.args[0].args[1], add(y, 1)) == 0

    def test_other_gaps_untouched(self):
        from repro.synth.deduction import FBound, _merge_within_clause

        fx = _problem(lambda f: ge(x, 0)).synth_fun.apply((x, y))
        merged = _merge_within_clause(
            [FBound(fx, True, add(y, 5)), FBound(fx, False, y)]
        )
        assert len(merged) == 2


def _max3_problem():
    return _problem(
        lambda f: and_(
            ge(f.apply((x, y, z)), x),
            ge(f.apply((x, y, z)), y),
            ge(f.apply((x, y, z)), z),
            or_(
                eq(f.apply((x, y, z)), x),
                eq(f.apply((x, y, z)), y),
                eq(f.apply((x, y, z)), z),
            ),
        ),
        params=(x, y, z),
        grammar=clia_grammar((x, y, z)),
        name="max3",
    )


def _count_sat_solves(monkeypatch):
    """Record one entry per ``SatSolver.solve`` call (one DPLL(T) round)."""
    from repro.smt.sat import SatSolver

    calls = []
    solve = SatSolver.solve

    def counting(self, *args, **kwargs):
        calls.append(self)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(SatSolver, "solve", counting)
    return calls


class TestIntEqProvesTheProblem:
    def test_accepting_a_deduced_max3_is_a_memo_hit(self, monkeypatch):
        """IntEq verifies the problem itself, so the cooperative loop's
        acceptance check of the deduced answer runs no DPLL(T) round."""
        from repro.smt.memo import default_memo
        from repro.synth import CooperativeSynthesizer

        sat_calls = _count_sat_solves(monkeypatch)
        accepts = []
        accept = CooperativeSynthesizer._accept

        def watched(self, node, candidate, deadline):
            rounds, hits = len(sat_calls), default_memo().hits
            ok = accept(self, node, candidate, deadline)
            accepts.append(
                (ok, len(sat_calls) - rounds, default_memo().hits - hits)
            )
            return ok

        monkeypatch.setattr(CooperativeSynthesizer, "_accept", watched)
        outcome = CooperativeSynthesizer(60).synthesize(_max3_problem())
        assert outcome.solved and outcome.stats.deduction_solved
        assert accepts == [(True, 0, 1)]


class TestDeadline:
    def test_expired_deadline_runs_no_sat_search(self, monkeypatch):
        sat_calls = _count_sat_solves(monkeypatch)
        deducer = Deducer(_max3_problem(), deadline=time.monotonic() - 1.0)
        result = deducer.deduct()
        assert result.solution is None
        assert sat_calls == []

    def test_remove_arg_subproblem_inherits_the_deadline(self, monkeypatch):
        from repro.smt.memo import reset_default_memo

        sat_calls = _count_sat_solves(monkeypatch)
        c5 = int_const(5)
        unused = int_var("unused")
        problem = _problem(
            lambda f: and_(
                ge(f.apply((x, c5, y)), x),
                ge(f.apply((x, c5, y)), y),
                or_(eq(f.apply((x, c5, y)), x), eq(f.apply((x, c5, y)), y)),
            ),
            params=(x, unused, y),
            grammar=clia_grammar((x, unused, y)),
        )
        # Without a deadline, RemoveArg solves this max2 in disguise.
        assert Deducer(problem).deduct().solution is not None
        del sat_calls[:]
        reset_default_memo()
        result = Deducer(problem, deadline=time.monotonic() - 1.0).deduct()
        assert result.solution is None
        assert sat_calls == []

    def test_loop_summary_verify_raises_past_the_deadline(self, monkeypatch):
        from repro.smt.solver import SolverBudgetExceeded
        from repro.sygus.problem import InvariantProblem
        from repro.synth.loop_summary import try_loop_summary

        sat_calls = _count_sat_solves(monkeypatch)
        problem = InvariantProblem.from_updates(
            (x,),
            eq(x, 0),
            (ite(lt(x, 10), add(x, 1), x),),
            implies(not_(lt(x, 10)), eq(x, 10)),
        ).to_sygus()
        deducer = Deducer(problem, deadline=time.monotonic() - 1.0)
        with pytest.raises(SolverBudgetExceeded):
            try_loop_summary(problem, deducer)
        assert sat_calls == []

    def test_deduction_only_solver_times_out(self):
        from repro.bench.runner import make_solver

        outcome = make_solver("deduction", 0.0).synthesize(_max3_problem())
        assert not outcome.solved
        assert outcome.timed_out
