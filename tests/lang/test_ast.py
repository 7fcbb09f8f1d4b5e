"""Tests for the hash-consed term AST."""

import pytest

from repro.lang import BOOL, INT, Kind, Sort, Term
from repro.lang.builders import (
    add,
    and_,
    apply_fn,
    bool_const,
    bool_var,
    eq,
    ge,
    int_const,
    int_var,
    ite,
    mul,
    not_,
    or_,
    sub,
)


class TestInterning:
    def test_identical_constants_are_same_object(self):
        assert int_const(42) is int_const(42)

    def test_identical_variables_are_same_object(self):
        assert int_var("x") is int_var("x")

    def test_distinct_sorts_are_distinct_objects(self):
        assert int_var("x") is not bool_var("x")

    def test_compound_terms_are_interned(self):
        x, y = int_var("x"), int_var("y")
        assert add(x, y) is add(x, y)
        assert add(x, y) is not add(y, x)

    def test_bool_and_int_constants_are_distinct(self):
        # In Python True == 1, but the terms must differ.
        assert bool_const(True) is not int_const(1)
        assert bool_const(True).sort is BOOL
        assert int_const(1).sort is INT

    def test_sort_interning(self):
        assert Sort("Int") is INT
        assert Sort("Bool") is BOOL


class TestSortInference:
    def test_arith_is_int(self):
        x = int_var("x")
        assert add(x, 1).sort is INT
        assert sub(x, 1).sort is INT
        assert mul(2, x).sort is INT

    def test_comparison_is_bool(self):
        x = int_var("x")
        assert ge(x, 0).sort is BOOL
        assert eq(x, 0).sort is BOOL

    def test_ite_takes_branch_sort(self):
        x = int_var("x")
        p = bool_var("p")
        assert ite(p, x, int_const(0)).sort is INT
        assert ite(p, p, bool_const(False)).sort is BOOL

    def test_application_sort_is_explicit(self):
        f = apply_fn("f", [int_var("x")], INT)
        assert f.sort is INT
        assert f.name == "f"


class TestWellFormedness:
    def test_mixed_sort_ite_rejected(self):
        with pytest.raises(ValueError):
            ite(bool_var("p"), int_var("x"), bool_var("q"))

    def test_non_bool_condition_rejected(self):
        with pytest.raises(ValueError):
            ite(int_var("x"), int_var("y"), int_var("z"))

    def test_bool_arithmetic_rejected(self):
        with pytest.raises(ValueError):
            add(bool_var("p"), int_var("x"))

    def test_int_connective_rejected(self):
        with pytest.raises(ValueError):
            and_(int_var("x"), bool_var("p"))

    def test_comparison_of_bools_rejected(self):
        with pytest.raises(ValueError):
            ge(bool_var("p"), bool_var("q"))

    def test_eq_requires_same_sorts(self):
        with pytest.raises(ValueError):
            eq(int_var("x"), bool_var("p"))


# One ill-formed construction per error branch of the well-formedness
# check, as ``Term.make`` arguments, with the message it must raise.
_X, _P = int_var("x"), bool_var("p")
ILL_FORMED = [
    ((Kind.CONST, (_X,), 1), "constants take no arguments"),
    ((Kind.CONST, (), "one"), "bad constant payload"),
    ((Kind.CONST, (), 1.0), "bad constant payload"),  # 1.0 == 1, still rejected
    ((Kind.VAR, (_X,), "v", INT), "variables take a name and no arguments"),
    ((Kind.VAR, (), 7, INT), "variables take a name and no arguments"),
    ((Kind.APP, (_X,), 7, INT), "applications require a function name"),
    ((Kind.NEG, (_X, _X)), "negation is unary"),
    ((Kind.SUB, (_X,)), "- is binary"),
    ((Kind.MUL, (_X, _X, _X)), r"\* is binary"),
    ((Kind.ADD, (_X,)), "addition takes at least two arguments"),
    ((Kind.ADD, (_X, _P)), "arithmetic over non-Int child"),
    ((Kind.GE, (_X,)), "comparisons are binary"),
    ((Kind.LT, (_P, _P)), "ordering comparisons require Int children"),
    ((Kind.EQ, (_X, _P)), "equality requires same-sorted children"),
    ((Kind.NOT, (_P, _P)), "not is unary"),
    ((Kind.IMPLIES, (_P,)), "=> is binary"),
    ((Kind.OR, (_P,)), "or takes at least two arguments"),
    ((Kind.AND, (_P, _X)), "connective over non-Bool child"),
    ((Kind.ITE, (_P, _X), None, INT), "ite is ternary"),
    ((Kind.ITE, (_X, _X, _X)), "ite condition must be Bool"),
    ((Kind.ITE, (_P, _X, _P)), "ite branches must agree on sort"),
    (("not-a-kind", (), None, INT), "unknown kind"),
]


class TestMakeRejectsOnEveryAttempt:
    """Only new keys are checked, so an ill-formed key must never be interned."""

    @pytest.mark.parametrize(
        "args,message", ILL_FORMED, ids=[m for _, m in ILL_FORMED]
    )
    def test_ill_formed_raises_first_and_on_repeat(self, args, message):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                Term.make(*args)

    def test_well_formed_repeat_is_the_same_object(self):
        first = Term.make(Kind.ITE, (_P, _X, Term.make(Kind.CONST, (), 3)))
        again = Term.make(Kind.ITE, (_P, _X, Term.make(Kind.CONST, (), 3)))
        assert again is first
        assert Term.make(Kind.CONST, (), True) is bool_const(True)
        assert Term.make(Kind.CONST, (), 1) is int_const(1)


class TestMetrics:
    def test_leaf_height_is_one(self):
        assert int_var("x").height == 1
        assert int_const(3).height == 1

    def test_height_of_nested_term(self):
        x, y = int_var("x"), int_var("y")
        term = ite(ge(x, y), x, y)
        assert term.height == 3

    def test_size_counts_nodes(self):
        x, y = int_var("x"), int_var("y")
        term = ite(ge(x, y), x, y)  # ite, ge, x, y, x, y
        assert term.size == 6

    def test_payload_accessors(self):
        assert int_const(7).value == 7
        assert int_var("v").name == "v"
        with pytest.raises(ValueError):
            int_const(7).name
        with pytest.raises(ValueError):
            int_var("v").value


class TestBuilders:
    def test_and_flattens(self):
        p, q, r = bool_var("p"), bool_var("q"), bool_var("r")
        assert and_(and_(p, q), r) is and_(p, q, r)

    def test_and_drops_true(self):
        p = bool_var("p")
        assert and_(p, bool_const(True)) is p

    def test_empty_and_is_true(self):
        assert and_().value is True

    def test_or_flattens_and_drops_false(self):
        p, q = bool_var("p"), bool_var("q")
        assert or_(or_(p, bool_const(False)), q) is or_(p, q)

    def test_empty_or_is_false(self):
        assert or_().value is False

    def test_not_cancels_double_negation(self):
        p = bool_var("p")
        assert not_(not_(p)) is p

    def test_add_flattens(self):
        x, y, z = int_var("x"), int_var("y"), int_var("z")
        assert add(add(x, y), z) is add(x, y, z)

    def test_int_coercion(self):
        x = int_var("x")
        assert add(x, 5).args[1] is int_const(5)

    def test_empty_add_is_zero(self):
        assert add().value == 0

    def test_repr_is_sexpr(self):
        x = int_var("x")
        assert repr(ge(x, 0)) == "(>= x 0)"
