"""Lightweight exact rationals for the simplex hot loops.

A rational is a plain tuple ``(num, den)`` with ``den > 0``.  Unlike
``fractions.Fraction``, results are *not* normalised on every operation —
only opportunistically when the components grow — which removes the
per-operation object construction and gcd cost that dominates pure-Python
simplex otherwise (this one change is worth ~3-4x on the SMT substrate).
"""

from __future__ import annotations

from math import gcd
from typing import Tuple

Rat = Tuple[int, int]

ZERO: Rat = (0, 1)
ONE: Rat = (1, 1)

#: Normalise lazily once components exceed this many bits.
_NORMALISE_BITS = 64


def rnorm(num: int, den: int) -> Rat:
    """Normalise to lowest terms with a positive denominator."""
    if den < 0:
        num, den = -num, -den
    if num == 0:
        return ZERO
    g = gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    return (num, den)


def _maybe_norm(num: int, den: int) -> Rat:
    if den < 0:
        num, den = -num, -den
    if den.bit_length() > _NORMALISE_BITS or num.bit_length() > _NORMALISE_BITS:
        return rnorm(num, den)
    return (num, den)


def from_int(value: int) -> Rat:
    return (value, 1)


def radd(a: Rat, b: Rat) -> Rat:
    if a[1] == b[1]:
        return _maybe_norm(a[0] + b[0], a[1])
    return _maybe_norm(a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def rsub(a: Rat, b: Rat) -> Rat:
    if a[1] == b[1]:
        return _maybe_norm(a[0] - b[0], a[1])
    return _maybe_norm(a[0] * b[1] - b[0] * a[1], a[1] * b[1])


def rmul(a: Rat, b: Rat) -> Rat:
    return _maybe_norm(a[0] * b[0], a[1] * b[1])


def rdiv(a: Rat, b: Rat) -> Rat:
    if b[0] == 0:
        raise ZeroDivisionError("rational division by zero")
    return _maybe_norm(a[0] * b[1], a[1] * b[0])


def rneg(a: Rat) -> Rat:
    return (-a[0], a[1])


def is_zero(a: Rat) -> bool:
    return a[0] == 0


def sign(a: Rat) -> int:
    if a[0] > 0:
        return 1
    if a[0] < 0:
        return -1
    return 0


def rlt(a: Rat, b: Rat) -> bool:
    return a[0] * b[1] < b[0] * a[1]


def rle(a: Rat, b: Rat) -> bool:
    return a[0] * b[1] <= b[0] * a[1]


def req(a: Rat, b: Rat) -> bool:
    return a[0] * b[1] == b[0] * a[1]


def rfloor(a: Rat) -> int:
    return a[0] // a[1]


def is_integral(a: Rat) -> bool:
    return a[0] % a[1] == 0
