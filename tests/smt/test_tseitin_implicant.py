"""Tests for normalisation (ite lifting, equality splitting), CNF encoding,
and implicant extraction."""

from repro.lang import (
    Kind,
    add,
    and_,
    bool_var,
    eq,
    evaluate,
    ge,
    int_var,
    ite,
    lt,
    not_,
    or_,
    sub,
)
from repro.lang.traversal import subexpressions
from repro.smt.implicant import extract_implicant
from repro.smt.tseitin import CnfEncoder, prepare_formula

x, y = int_var("x"), int_var("y")
p = bool_var("p")


def _no_int_ite_under_comparison(term):
    for sub_term in subexpressions(term):
        if sub_term.kind in (Kind.GE, Kind.GT, Kind.LE, Kind.LT, Kind.EQ):
            for node in subexpressions(sub_term):
                if node is sub_term:
                    continue
                if node.kind is Kind.ITE and node.sort.name == "Int":
                    return False
    return True


class TestLiftIte:
    def test_comparison_over_ite(self):
        term = ge(ite(p, x, y), 0)
        lifted = prepare_formula(term)
        assert lifted is ite(p, ge(x, 0), ge(y, 0))

    def test_ite_inside_arithmetic(self):
        term = ge(add(ite(p, x, y), 1), 0)
        lifted = prepare_formula(term)
        assert _no_int_ite_under_comparison(lifted)

    def test_nested_ites(self):
        q = bool_var("q")
        term = eq(ite(p, ite(q, x, y), sub(x, y)), 0)
        lifted = prepare_formula(term)
        assert _no_int_ite_under_comparison(lifted)

    def test_semantics_preserved(self):
        term = ge(add(ite(ge(x, 0), x, y), ite(ge(y, 0), y, x)), 1)
        lifted = prepare_formula(term)
        for a in range(-3, 4):
            for b in range(-3, 4):
                env = {"x": a, "y": b}
                assert evaluate(term, env) == evaluate(lifted, env)


class TestSplitIntEq:
    def test_splits_equality(self):
        split = prepare_formula(eq(x, y))
        assert split is and_(ge(x, y), ge(y, x))

    def test_bool_equality_untouched(self):
        q = bool_var("q")
        term = eq(p, q)
        assert prepare_formula(term) is term


class TestCnfEncoder:
    def test_complementary_atoms_share_variable(self):
        encoder = CnfEncoder()
        encoder.assert_formula(or_(ge(x, y), lt(x, y)))
        assert len(encoder.atom_vars) == 1

    def test_trivial_comparisons_fold(self):
        encoder = CnfEncoder()
        encoder.assert_formula(ge(add(x, 1), x))
        assert len(encoder.atom_vars) == 0
        assert encoder.sat.solve() is not None

    def test_structure_sharing(self):
        encoder = CnfEncoder()
        shared = ge(x, 0)
        encoder.assert_formula(and_(or_(shared, p), or_(shared, not_(p))))
        assert len(encoder.atom_vars) == 1


class TestImplicant:
    def test_or_yields_single_disjunct(self):
        encoder = CnfEncoder()
        encoder.assert_formula(or_(ge(x, 0), ge(y, 0), ge(add(x, y), 10)))
        model = encoder.sat.solve()
        needed = extract_implicant(encoder, model)
        assert 1 <= len(needed) <= 3

    def test_and_needs_all_conjuncts(self):
        encoder = CnfEncoder()
        encoder.assert_formula(and_(ge(x, 0), ge(y, 1)))
        model = encoder.sat.solve()
        needed = extract_implicant(encoder, model)
        assert len(needed) == 2
        assert all(value is True for value in needed.values())

    def test_implicant_forces_formula(self):
        # Whatever atoms are picked, setting exactly those to the recorded
        # polarities must satisfy the formula regardless of other atoms.
        formula = or_(and_(ge(x, 0), ge(y, 0)), and_(lt(x, 0), lt(y, 0)))
        encoder = CnfEncoder()
        encoder.assert_formula(formula)
        model = encoder.sat.solve()
        needed = extract_implicant(encoder, model)
        # Build an integer assignment satisfying exactly the needed atoms.
        from repro.smt.branch_bound import check_lia

        constraints = []
        for atom, positive in needed.items():
            expr = atom.to_linexpr() if positive else atom.negate().to_linexpr()
            constraints.append((expr, atom))
        feasible, int_model = check_lia(constraints)
        assert feasible
        env = {"x": int_model.get("x", 0), "y": int_model.get("y", 0)}
        assert evaluate(formula, env)
