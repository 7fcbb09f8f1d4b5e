"""Tests for linear expressions and canonical atoms."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import add, ge, int_const, int_var, ite, mul, neg, sub
from repro.smt.linear import (
    LinAtom,
    LinExpr,
    LinearityError,
    canonical_atom,
    term_to_linexpr,
)


class TestLinExpr:
    def test_constant(self):
        expr = LinExpr.constant(5)
        assert expr.is_constant and expr.const == 5

    def test_variable(self):
        expr = LinExpr.variable("x")
        assert expr.coeffs == (("x", 1),)

    def test_addition_merges(self):
        e = LinExpr({"x": 2}, 1) + LinExpr({"x": -2, "y": 1}, 2)
        assert e.coeffs == (("y", 1),)
        assert e.const == 3

    def test_scale(self):
        e = LinExpr({"x": 2}, -1).scale(-3)
        assert e.coeffs == (("x", -6),) and e.const == 3

    def test_evaluate(self):
        e = LinExpr({"x": 2, "y": -1}, 7)
        assert e.evaluate({"x": 3, "y": 4}) == 2 * 3 - 4 + 7

    def test_zero_coefficients_dropped(self):
        e = LinExpr({"x": 0, "y": 1}, 0)
        assert e.coeffs == (("y", 1),)


class TestTermToLinExpr:
    def test_basic(self):
        x, y = int_var("x"), int_var("y")
        e = term_to_linexpr(add(mul(2, x), sub(y, 3)))
        assert e.as_dict() == {"x": 2, "y": 1}
        assert e.const == -3

    def test_negation(self):
        x = int_var("x")
        e = term_to_linexpr(neg(add(x, 1)))
        assert e.as_dict() == {"x": -1} and e.const == -1

    def test_nonlinear_product_rejected(self):
        x, y = int_var("x"), int_var("y")
        with pytest.raises(LinearityError):
            term_to_linexpr(mul(x, y))

    def test_ite_rejected(self):
        x = int_var("x")
        with pytest.raises(LinearityError):
            term_to_linexpr(ite(ge(x, 0), x, int_const(0)))


class TestCanonicalAtom:
    def test_gcd_tightening(self):
        # 2x - 3 >= 0  <=>  x >= 3/2  <=>  x >= 2  <=>  x - 2 >= 0.
        atom, positive = canonical_atom(LinExpr({"x": 2}, -3))
        assert positive
        assert atom.coeffs == (("x", 1),) and atom.const == -2

    def test_negative_leading_coefficient_flips(self):
        # -x + 2 >= 0 is canonicalised as NOT(x - 3 >= 0).
        atom, positive = canonical_atom(LinExpr({"x": -1}, 2))
        assert not positive
        assert atom.coeffs == (("x", 1),) and atom.const == -3

    def test_complement_pairs_share_atom(self):
        # x - y >= 0 and y - x - 1 >= 0 are each other's negation.
        a1, p1 = canonical_atom(LinExpr({"x": 1, "y": -1}, 0))
        a2, p2 = canonical_atom(LinExpr({"x": -1, "y": 1}, -1))
        assert a1 == a2
        assert p1 != p2

    def test_trivial_atoms(self):
        true_atom, _ = canonical_atom(LinExpr({}, 7))
        false_atom, _ = canonical_atom(LinExpr({}, -7))
        assert true_atom.const == 0 and not true_atom.coeffs
        assert false_atom.const == -1

    def test_negate_semantics(self):
        atom, _ = canonical_atom(LinExpr({"x": 1}, -5))  # x >= 5
        negated = atom.negate()
        for value in (4, 5, 6):
            assert atom.holds({"x": value}) != negated.holds({"x": value})


@given(
    st.dictionaries(st.sampled_from("xyz"), st.integers(-9, 9), min_size=1),
    st.integers(-20, 20),
    st.dictionaries(st.sampled_from("xyz"), st.integers(-10, 10), min_size=3, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_canonicalisation_preserves_semantics(coeffs, const, env):
    expr = LinExpr(coeffs, const)
    atom, positive = canonical_atom(expr)
    original = expr.evaluate(env) >= 0
    canonical = atom.holds(env) == positive
    assert original == canonical


@given(
    st.dictionaries(st.sampled_from("xyz"), st.integers(-9, 9), min_size=1),
    st.integers(-20, 20),
)
@settings(max_examples=200, deadline=None)
def test_atom_expressions_are_its_conversions(coeffs, const):
    atom, _ = canonical_atom(LinExpr(coeffs, const))
    assert atom.linexpr(True) == atom.to_linexpr()
    assert atom.linexpr(False) == atom.negate().to_linexpr()
    # Built once and kept: later calls return the same objects.
    assert atom.linexpr(True) is atom.linexpr(True)
    assert atom.linexpr(False) is atom.linexpr(False)
