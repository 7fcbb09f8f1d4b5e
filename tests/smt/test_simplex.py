"""Tests for the rational simplex core."""

from fractions import Fraction

import pytest

from repro.smt.simplex import Bound, Conflict, Simplex


def _value(simplex, var):
    return Fraction(*simplex.raw_value(var))


class TestDirectBounds:
    def test_single_variable_window(self):
        simplex = Simplex()
        x = simplex.new_var()
        simplex.assert_bound(Bound(x, True, 3, "lo"))
        simplex.assert_bound(Bound(x, False, 5, "hi"))
        assert simplex.check()
        assert 3 <= _value(simplex, x) <= 5

    def test_contradictory_bounds_conflict(self):
        simplex = Simplex()
        x = simplex.new_var()
        simplex.assert_bound(Bound(x, True, 7, "lo"))
        with pytest.raises(Conflict) as info:
            simplex.assert_bound(Bound(x, False, 2, "hi"))
        tags = {bound.tag for bound in info.value.bounds}
        assert tags == {"lo", "hi"}

    def test_strongest_bound_wins(self):
        simplex = Simplex()
        x = simplex.new_var()
        simplex.assert_bound(Bound(x, True, 1, "weak"))
        simplex.assert_bound(Bound(x, True, 4, "strong"))
        assert simplex.check()
        assert _value(simplex, x) >= 4


class TestSlacks:
    def test_sum_constraint_feasible(self):
        simplex = Simplex()
        x, y = simplex.new_var(), simplex.new_var()
        s = simplex.new_slack({x: 1, y: 1})
        simplex.assert_bound(Bound(s, True, 10, "sum"))
        simplex.assert_bound(Bound(x, False, 4, "xcap"))
        assert simplex.check()
        assert _value(simplex, x) + _value(simplex, y) >= 10
        assert _value(simplex, x) <= 4

    def test_infeasible_system_explains(self):
        # x + y >= 10, x <= 4, y <= 4.
        simplex = Simplex()
        x, y = simplex.new_var(), simplex.new_var()
        s = simplex.new_slack({x: 1, y: 1})
        simplex.assert_bound(Bound(s, True, 10, "sum"))
        simplex.assert_bound(Bound(x, False, 4, "xcap"))
        simplex.assert_bound(Bound(y, False, 4, "ycap"))
        with pytest.raises(Conflict) as info:
            simplex.check()
        tags = {bound.tag for bound in info.value.bounds}
        assert tags == {"sum", "xcap", "ycap"}

    def test_slack_of_basic_combination(self):
        # A slack referencing another slack must expand through the tableau.
        simplex = Simplex()
        x, y = simplex.new_var(), simplex.new_var()
        s1 = simplex.new_slack({x: 1, y: 1})
        s2 = simplex.new_slack({s1: 2, x: -1})
        # s2 = 2(x + y) - x = x + 2y.
        simplex.assert_bound(Bound(s2, True, 6, "s2"))
        simplex.assert_bound(Bound(x, False, 0, "x"))
        simplex.assert_bound(Bound(y, False, 3, "y"))
        assert simplex.check()
        value = _value(simplex, x) + 2 * _value(simplex, y)
        assert value >= 6

    def test_equality_via_two_bounds(self):
        simplex = Simplex()
        x, y = simplex.new_var(), simplex.new_var()
        s = simplex.new_slack({x: 1, y: -1})
        simplex.assert_bound(Bound(s, True, 2, "eq-lo"))
        simplex.assert_bound(Bound(s, False, 2, "eq-hi"))
        assert simplex.check()
        assert _value(simplex, x) - _value(simplex, y) == 2

    def test_rational_solution(self):
        # 2x >= 1, 2x <= 1  =>  x = 1/2 over the rationals.
        simplex = Simplex()
        x = simplex.new_var()
        s = simplex.new_slack({x: 2})
        simplex.assert_bound(Bound(s, True, 1, "lo"))
        simplex.assert_bound(Bound(s, False, 1, "hi"))
        assert simplex.check()
        assert _value(simplex, x) == Fraction(1, 2)


class TestChains:
    def test_difference_chain_feasible(self):
        # x1 <= x2 <= x3, x3 - x1 >= 0 is feasible.
        simplex = Simplex()
        xs = [simplex.new_var() for _ in range(3)]
        for a, b in zip(xs, xs[1:]):
            s = simplex.new_slack({b: 1, a: -1})
            simplex.assert_bound(Bound(s, True, 0, f"{a}<{b}"))
        assert simplex.check()
        values = [_value(simplex, v) for v in xs]
        assert values == sorted(values)

    def test_cyclic_strict_chain_infeasible(self):
        # x1 - x2 >= 1, x2 - x3 >= 1, x3 - x1 >= 1 sums to 0 >= 3.
        simplex = Simplex()
        xs = [simplex.new_var() for _ in range(3)]
        pairs = [(0, 1), (1, 2), (2, 0)]
        for a, b in pairs:
            s = simplex.new_slack({xs[a]: 1, xs[b]: -1})
            simplex.assert_bound(Bound(s, True, 1, f"edge{a}{b}"))
        with pytest.raises(Conflict):
            simplex.check()


class TestTrail:
    def test_pop_retracts_a_conflicting_bound(self):
        # x + y >= 10 with x <= 4 is feasible; y <= 4 inside a level is not.
        simplex = Simplex()
        x, y = simplex.new_var(), simplex.new_var()
        s = simplex.new_slack({x: 1, y: 1})
        simplex.assert_bound(Bound(s, True, 10, "sum"))
        simplex.assert_bound(Bound(x, False, 4, "xcap"))
        assert simplex.check()
        simplex.push()
        simplex.assert_bound(Bound(y, False, 4, "ycap"))
        with pytest.raises(Conflict):
            simplex.check()
        simplex.pop()
        assert simplex.check()
        assert _value(simplex, x) + _value(simplex, y) >= 10

    def test_pop_restores_the_weaker_bound_it_overwrote(self):
        simplex = Simplex()
        x = simplex.new_var()
        simplex.assert_bound(Bound(x, True, 1, "outer"))
        simplex.push()
        simplex.assert_bound(Bound(x, True, 5, "inner"))
        simplex.push()
        simplex.assert_bound(Bound(x, True, 3, "weaker"))  # not stronger: kept out
        simplex.pop()
        with pytest.raises(Conflict) as info:
            simplex.assert_bound(Bound(x, False, 4, "cap"))
        assert {bound.tag for bound in info.value.bounds} == {"inner", "cap"}
        simplex.pop()
        simplex.assert_bound(Bound(x, False, 4, "cap"))
        assert simplex.check()
        assert 1 <= _value(simplex, x) <= 4
