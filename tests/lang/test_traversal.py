"""Tests for term traversals and substitution."""

from repro.lang import (
    add,
    and_,
    apply_fn,
    eq,
    free_vars,
    ge,
    int_const,
    int_var,
    ite,
    or_,
    sub,
    subexpressions,
    substitute,
    substitute_apps,
    contains_app,
)
from repro.lang.sorts import INT
from repro.lang.traversal import app_occurrences, rewrite_bottom_up


class TestFreeVars:
    def test_variable(self):
        x = int_var("x")
        assert free_vars(x) == {x}

    def test_constant_has_none(self):
        assert free_vars(int_const(1)) == frozenset()

    def test_compound(self):
        x, y = int_var("x"), int_var("y")
        assert free_vars(ite(ge(x, 0), y, add(x, 1))) == {x, y}


class TestSubexpressions:
    def test_postorder_and_dedup(self):
        x = int_var("x")
        term = add(x, x)  # builders keep both occurrences; term is interned
        subs = list(subexpressions(term))
        assert subs == [x, term]

    def test_all_nodes_present(self):
        x, y = int_var("x"), int_var("y")
        term = ge(add(x, y), sub(x, y))
        subs = set(subexpressions(term))
        assert {x, y, add(x, y), sub(x, y), term} == subs


class TestSubstitute:
    def test_variable_substitution(self):
        x, y = int_var("x"), int_var("y")
        assert substitute(add(x, 1), {x: y}) is add(y, 1)

    def test_simultaneous_swap(self):
        x, y = int_var("x"), int_var("y")
        swapped = substitute(sub(x, y), {x: y, y: x})
        assert swapped is sub(y, x)

    def test_subterm_substitution(self):
        x = int_var("x")
        inner = add(x, 1)
        term = ge(inner, 0)
        assert substitute(term, {inner: x}) is ge(x, 0)

    def test_empty_mapping_is_identity(self):
        x = int_var("x")
        term = add(x, 2)
        assert substitute(term, {}) is term


class TestSubstituteApps:
    def test_beta_reduction(self):
        x, y = int_var("x"), int_var("y")
        p1, p2 = int_var("p1"), int_var("p2")
        call = apply_fn("f", [add(x, 1), y], INT)
        spec = ge(call, 0)
        result = substitute_apps(spec, "f", (p1, p2), sub(p1, p2))
        assert result is ge(sub(add(x, 1), y), 0)

    def test_multiple_call_sites(self):
        x, y = int_var("x"), int_var("y")
        p = int_var("p")
        f1 = apply_fn("f", [x], INT)
        f2 = apply_fn("f", [y], INT)
        spec = eq(f1, f2)
        result = substitute_apps(spec, "f", (p,), add(p, 1))
        assert result is eq(add(x, 1), add(y, 1))

    def test_nested_call_sites_innermost_first(self):
        from repro.lang import evaluate

        x = int_var("x")
        p = int_var("p")
        inner = apply_fn("f", [x], INT)
        outer = apply_fn("f", [inner], INT)
        result = substitute_apps(ge(outer, 0), "f", (p,), add(p, 1))
        assert not contains_app(result, "f")
        # f(f(x)) with f = λp. p+1 is x+2, so the result holds iff x >= -2.
        assert evaluate(result, {"x": -2}) is True
        assert evaluate(result, {"x": -3}) is False

    def test_other_functions_untouched(self):
        x = int_var("x")
        p = int_var("p")
        g = apply_fn("g", [x], INT)
        result = substitute_apps(ge(g, 0), "f", (p,), p)
        assert result is ge(g, 0)


class TestAppQueries:
    def test_contains_app(self):
        x = int_var("x")
        spec = ge(apply_fn("f", [x], INT), 0)
        assert contains_app(spec, "f")
        assert not contains_app(spec, "g")

    def test_app_occurrences_distinct(self):
        x, y = int_var("x"), int_var("y")
        f1 = apply_fn("f", [x], INT)
        f2 = apply_fn("f", [y], INT)
        spec = and_(ge(f1, 0), ge(f2, 0), ge(f1, 1))
        assert set(app_occurrences(spec, "f")) == {f1, f2}


class TestRewriteBottomUp:
    def test_children_rewritten_before_parent(self):
        x = int_var("x")

        def rw(t):
            if t is x:
                return int_const(2)
            return t

        assert rewrite_bottom_up(add(x, x), rw) is add(2, 2)

    def test_identity_preserves_object(self):
        term = add(int_var("x"), 1)
        assert rewrite_bottom_up(term, lambda t: t) is term
