"""Tests for the divide-and-conquer strategies (Figure 4)."""

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
from repro.lang.traversal import contains_app
from repro.sygus.grammar import clia_grammar, qm_grammar
from repro.sygus.problem import InvariantProblem, SygusProblem, SynthFun
from repro.synth.divide import (
    MAX_SUBPROBLEMS,
    fixed_term_splits,
    propose_splits,
    subterm_splits,
    weaker_spec_splits,
)

x, y, z = int_var("x"), int_var("y"), int_var("z")


def _max3_qm_problem():
    fun = SynthFun("f", (x, y, z), INT, qm_grammar((x, y, z)))
    fx = fun.apply((x, y, z))
    spec = eq(fx, ite(and_(ge(x, y), ge(x, z)), x, ite(ge(y, z), y, z)))
    return SygusProblem(fun, spec, (x, y, z), name="max3-qm")


def _max2_clia_problem():
    fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
    fx = fun.apply((x, y))
    spec = and_(ge(fx, x), ge(fx, y), or_(eq(fx, x), eq(fx, y)))
    return SygusProblem(fun, spec, (x, y), name="max2")


class TestSubtermSplits:
    def test_inner_ite_is_a_candidate(self):
        problem = _max3_qm_problem()
        splits = subterm_splits(problem)
        subspecs = [split.subproblem for split in splits]
        inner = ite(ge(y, z), y, z)
        assert any(
            s.spec.args[1] is inner if s.spec.kind.value == "=" else False
            for s in subspecs
        )

    def test_full_rhs_excluded(self):
        problem = _max3_qm_problem()
        splits = subterm_splits(problem)
        rhs = problem.spec.args[1]
        for split in splits:
            assert split.subproblem.spec.args[1] is not rhs

    def test_aux_params_are_subterm_vars(self):
        problem = _max3_qm_problem()
        splits = subterm_splits(problem)
        inner = ite(ge(y, z), y, z)
        split = next(
            s for s in splits if s.subproblem.spec.args[1] is inner
        )
        assert set(split.subproblem.synth_fun.params) == {y, z}

    def test_resolution_builds_type_b_with_extended_grammar(self):
        from repro.lang import apply_fn

        problem = _max3_qm_problem()
        splits = subterm_splits(problem)
        inner = ite(ge(y, z), y, z)
        split = next(s for s in splits if s.subproblem.spec.args[1] is inner)
        # Pretend we solved aux with the known solution.
        aux_params = split.subproblem.synth_fun.params
        p1, p2 = aux_params
        aux_body = add(p1, apply_fn("qm", (sub(p2, p1), 0), INT))
        resolution = split.resolve(aux_body)
        assert resolution[0] == "problem"
        type_b = resolution[1]
        aux_name = split.subproblem.fun_name
        assert aux_name in type_b.synth_fun.grammar.interpreted
        # Combining inlines aux, landing back in the original grammar.
        combine = resolution[2]
        b_body = apply_fn(
            aux_name, (z, apply_fn(aux_name, (x, y), INT)), INT
        )
        final = combine(b_body)
        assert not contains_app(final, aux_name)
        assert problem.synth_fun.grammar.generates(final)

    def test_dividing_a_type_b_problem_picks_a_fresh_aux_name(self):
        """A Type-B problem keeps its parent's fun name and already
        interprets the parent's aux.  Dividing it again must not reuse that
        name: the new aux would replace the old one in the grammar, call
        itself, and never inline."""
        from repro.lang import apply_fn
        from repro.sygus.grammar import expand_interpreted

        problem = _max3_qm_problem()
        first_names = [
            s.subproblem.fun_name
            for s in subterm_splits(problem)
        ]
        assert first_names == [f"aux{i}!f" for i in range(len(first_names))]
        inner = ite(ge(y, z), y, z)
        split = next(
            s for s in subterm_splits(problem)
            if s.subproblem.spec.args[1] is inner
        )
        p1, p2 = split.subproblem.synth_fun.params
        first_aux = split.subproblem.fun_name
        type_b = split.resolve(
            add(p1, apply_fn("qm", (sub(p2, p1), 0), INT))
        )[1]
        interpreted = type_b.synth_fun.grammar.interpreted
        assert first_aux in interpreted
        resplits = subterm_splits(type_b)
        assert len(resplits) == len(first_names)
        for again in resplits:
            name = again.subproblem.fun_name
            assert name not in interpreted
            # Solve the new aux by calling the old one: the chain inlines.
            again_b = again.resolve(apply_fn(first_aux, (y, z), INT))[1]
            params = again.subproblem.synth_fun.params
            expanded = expand_interpreted(
                apply_fn(name, params, INT),
                again_b.synth_fun.grammar.interpreted,
            )
            assert not contains_app(expanded, name)
            assert not contains_app(expanded, first_aux)


class TestFixedTermSplits:
    def test_candidates_from_compared_terms(self):
        problem = _max2_clia_problem()
        splits = fixed_term_splits(problem)
        assert splits, "max2's spec compares f against x and y"

    def test_resolution_is_direct_solution(self):
        problem = _max2_clia_problem()
        splits = fixed_term_splits(problem)
        # Find the split whose fixed term is x.
        split = next(
            s for s in splits if "fixedterm" in s.subproblem.name
        )
        # Solve the subproblem "g works when the fixed term fails" with y.
        resolution = split.resolve(y)
        if resolution is not None:
            kind, body = resolution
            assert kind == "solution"
            assert problem.synth_fun.grammar.generates(body)

    def test_multi_invocation_not_applicable(self):
        fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
        spec = eq(fun.apply((x, y)), fun.apply((y, x)))
        problem = SygusProblem(fun, spec, (x, y))
        assert fixed_term_splits(problem) == []

    def test_correct_combination_semantics(self):
        problem = _max2_clia_problem()
        splits = fixed_term_splits(problem)
        for split in splits:
            resolution = split.resolve(y)
            if resolution is None:
                continue
            _, body = resolution
            works = all(
                evaluate(body, {"x": a, "y": b}) == max(a, b)
                for a in range(-2, 3)
                for b in range(-2, 3)
            )
            if works:
                return
        # At least one fixed-term division must combine into full max2.
        raise AssertionError("no fixed-term split produced a working max2")


class TestWeakerSpecSplits:
    def _inv_problem(self):
        return InvariantProblem.from_updates(
            (x,),
            eq(x, 0),
            (ite(lt(x, 10), add(x, 1), x),),
            implies(not_(lt(x, 10)), eq(x, 10)),
        ).to_sygus()

    def test_two_divisions_offered(self):
        problem = self._inv_problem()
        splits = weaker_spec_splits(problem)
        assert len(splits) == 2
        for split in splits:
            # Weaker spec: two of the three conjuncts.
            assert len(split.subproblem.spec.args) == 2

    def test_trivial_a_solution_rejected(self):
        from repro.lang import bool_const

        problem = self._inv_problem()
        splits = weaker_spec_splits(problem)
        assert splits[0].resolve(bool_const(True)) is None
        assert splits[1].resolve(bool_const(False)) is None

    def test_resolution_produces_type_b(self):
        from repro.lang import le

        problem = self._inv_problem()
        split = splits = weaker_spec_splits(problem)[0]  # pre + inductive
        # P = x >= 0 satisfies pre->P and inductiveness.
        resolution = split.resolve(ge(x, 0))
        assert resolution is not None and resolution[0] == "problem"
        _, type_b, combine = resolution
        assert type_b.synth_fun.return_sort is BOOL
        # Q = x <= 10 makes P and Q a full invariant.
        combined = combine(le(x, 10))
        ok, _ = problem.verify(combined)
        assert ok

    def test_not_applicable_to_int_problems(self):
        assert weaker_spec_splits(_max2_clia_problem()) == []


class TestProposeSplits:
    def test_cap_respected(self, monkeypatch):
        from repro.synth import divide

        problem = _max3_qm_problem()
        assert len(propose_splits(problem)) <= MAX_SUBPROBLEMS
        # qm max3 has two splits, so a cap of one cuts them.
        monkeypatch.setattr(divide, "MAX_SUBPROBLEMS", 1)
        assert len(propose_splits(problem)) == 1

    def test_inv_problems_get_weaker_spec_first(self):
        problem = InvariantProblem.from_updates(
            (x,),
            eq(x, 0),
            (ite(lt(x, 10), add(x, 1), x),),
            implies(not_(lt(x, 10)), eq(x, 10)),
        ).to_sygus()
        splits = propose_splits(problem)
        assert splits[0].strategy == "weaker-spec"
