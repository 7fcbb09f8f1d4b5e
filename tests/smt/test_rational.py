"""Tests for the tuple-rational arithmetic used by the simplex."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.smt import rational as r


_nums = st.integers(min_value=-1000, max_value=1000)
_dens = st.integers(min_value=1, max_value=1000)
_rats = st.tuples(_nums, _dens)


def _f(a):
    return Fraction(a[0], a[1])


@given(_rats, _rats)
@settings(max_examples=300, deadline=None)
def test_field_operations_match_fraction(a, b):
    assert _f(r.radd(a, b)) == _f(a) + _f(b)
    assert _f(r.rsub(a, b)) == _f(a) - _f(b)
    assert _f(r.rmul(a, b)) == _f(a) * _f(b)
    if b[0] != 0:
        assert _f(r.rdiv(a, b)) == _f(a) / _f(b)


@given(_rats, _rats)
@settings(max_examples=200, deadline=None)
def test_comparisons_match_fraction(a, b):
    assert r.rlt(a, b) == (_f(a) < _f(b))
    assert r.rle(a, b) == (_f(a) <= _f(b))
    assert r.req(a, b) == (_f(a) == _f(b))


@given(_rats)
@settings(max_examples=200, deadline=None)
def test_floor_and_integrality(a):
    assert r.rfloor(a) == _f(a).numerator // _f(a).denominator if a[1] == 1 else True
    import math

    assert r.rfloor(a) == math.floor(_f(a))
    assert r.is_integral(a) == (_f(a).denominator == 1)


def test_normalisation_and_conversions():
    assert r.rnorm(4, -8) == (-1, 2)
    assert r.rnorm(0, 5) == (0, 1)
    assert r.from_int(3) == (3, 1)
    assert r.sign((5, 2)) == 1
    assert r.sign((-5, 2)) == -1
    assert r.sign((0, 1)) == 0
    assert r.is_zero(r.ZERO)
    assert r.rneg((3, 4)) == (-3, 4)


def test_lazy_normalisation_keeps_values_exact():
    # Chain many additions; intermediate tuples may be unnormalised but the
    # value must stay exact.
    total = r.ZERO
    expected = Fraction(0)
    for i in range(1, 60):
        total = r.radd(total, (1, i))
        expected += Fraction(1, i)
    assert _f(total) == expected
