"""Linear expressions and canonical linear atoms over the integers.

A :class:`LinExpr` is ``sum(coeff_i * var_i) + const`` with integer
coefficients.  A :class:`LinAtom` is the constraint ``LinExpr >= 0`` in a
canonical, gcd-tightened form; complementary atoms (``e >= 0`` versus
``-e - 1 >= 0``) normalise to the same atom with opposite polarity, so the
SAT abstraction sees them as one variable.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Mapping, Optional, Tuple

from repro.lang.ast import Kind, Term


class LinearityError(Exception):
    """Raised when a term is not linear (e.g. a product of two variables)."""


class LinExpr:
    """An immutable integer-linear expression ``sum c_i * x_i + const``."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Mapping[str, int], const: int):
        self.coeffs: Tuple[Tuple[str, int], ...] = tuple(
            sorted((v, c) for v, c in coeffs.items() if c != 0)
        )
        self.const = const

    @staticmethod
    def constant(value: int) -> "LinExpr":
        return LinExpr({}, value)

    @staticmethod
    def variable(name: str) -> "LinExpr":
        return LinExpr({name: 1}, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self.coeffs)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LinExpr") -> "LinExpr":
        coeffs = self.as_dict()
        for var, coeff in other.coeffs:
            coeffs[var] = coeffs.get(var, 0) + coeff
        return LinExpr(coeffs, self.const + other.const)

    def __sub__(self, other: "LinExpr") -> "LinExpr":
        return self + other.scale(-1)

    def scale(self, factor: int) -> "LinExpr":
        return LinExpr({v: c * factor for v, c in self.coeffs}, self.const * factor)

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.const + sum(c * env[v] for v, c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinExpr)
            and self.coeffs == other.coeffs
            and self.const == other.const
        )

    def __hash__(self) -> int:
        return hash((self.coeffs, self.const))

    def __repr__(self) -> str:
        parts = [f"{c}*{v}" for v, c in self.coeffs]
        parts.append(str(self.const))
        return " + ".join(parts)


def term_to_linexpr(term: Term) -> LinExpr:
    """Convert an Int-sorted, ite-free term into a :class:`LinExpr`.

    Raises:
        LinearityError: if the term multiplies two non-constant parts or
            contains an ``ite``/application (those must be eliminated first).
    """
    kind = term.kind
    if kind is Kind.CONST:
        return LinExpr.constant(term.payload)  # type: ignore[arg-type]
    if kind is Kind.VAR:
        return LinExpr.variable(term.payload)  # type: ignore[arg-type]
    if kind is Kind.ADD:
        result = LinExpr.constant(0)
        for arg in term.args:
            result = result + term_to_linexpr(arg)
        return result
    if kind is Kind.SUB:
        return term_to_linexpr(term.args[0]) - term_to_linexpr(term.args[1])
    if kind is Kind.NEG:
        return term_to_linexpr(term.args[0]).scale(-1)
    if kind is Kind.MUL:
        left = term_to_linexpr(term.args[0])
        right = term_to_linexpr(term.args[1])
        if left.is_constant:
            return right.scale(left.const)
        if right.is_constant:
            return left.scale(right.const)
        raise LinearityError(f"nonlinear product: {term!r}")
    raise LinearityError(f"not an integer-linear term: {term!r}")


class LinAtom:
    """Canonical linear atom ``expr >= 0`` with gcd-tightened coefficients."""

    __slots__ = ("coeffs", "const", "_hash", "_exprs")

    def __init__(self, coeffs: Tuple[Tuple[str, int], ...], const: int):
        self.coeffs = coeffs
        self.const = const
        self._hash = hash((coeffs, const))
        # (negated, positive) LinExprs, built by the first :meth:`linexpr`.
        self._exprs: Optional[Tuple[LinExpr, LinExpr]] = None

    def negate(self) -> "LinAtom":
        """The constraint ``not (expr >= 0)``, i.e. ``-expr - 1 >= 0``.

        The result is a valid constraint but deliberately *not* re-canonicalised
        (the canonical form of a negation is the original atom with flipped
        polarity, which is what the SAT layer already tracks).
        """
        return LinAtom(tuple((v, -c) for v, c in self.coeffs), -self.const - 1)

    def to_linexpr(self) -> LinExpr:
        return LinExpr(dict(self.coeffs), self.const)

    def linexpr(self, positive: bool) -> LinExpr:
        """The atom as ``expr >= 0`` under a polarity.

        :meth:`to_linexpr` when ``positive``, else ``negate().to_linexpr()``.
        Both are built on first use and kept with the atom, so a DPLL(T)
        round that sends the atom to the theory solver converts nothing.
        """
        exprs = self._exprs
        if exprs is None:
            exprs = self._exprs = (self.negate().to_linexpr(), self.to_linexpr())
        return exprs[positive]

    def holds(self, env: Mapping[str, int]) -> bool:
        return self.to_linexpr().evaluate(env) >= 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinAtom)
            and self.coeffs == other.coeffs
            and self.const == other.const
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"({LinExpr(dict(self.coeffs), self.const)!r} >= 0)"


def canonical_atom(expr: LinExpr) -> Tuple[LinAtom, bool]:
    """Canonicalise ``expr >= 0``.

    Returns ``(atom, positive)``; the constraint is ``atom`` when ``positive``
    and ``not atom`` otherwise.  Canonical atoms have gcd 1 over coefficients
    (tightening the constant by integer rounding) and a positive leading
    coefficient, so ``x - y >= 0`` and ``y - x - 1 >= 0`` share one atom.
    """
    coeffs = expr.coeffs
    const = expr.const
    if not coeffs:
        # A constant atom: keep as a degenerate always-true/false marker.
        return LinAtom((), 0 if const >= 0 else -1), True
    divisor = 0
    for _, coeff in coeffs:
        divisor = gcd(divisor, abs(coeff))
    if divisor > 1:
        coeffs = tuple((v, c // divisor) for v, c in coeffs)
        # Floor division (toward negative infinity) tightens `expr >= 0`.
        const = _floor_div(expr.const, divisor)
    if coeffs[0][1] > 0:
        return LinAtom(coeffs, const), True
    # Flip sign: expr >= 0  <=>  not (-expr - 1 >= 0).
    flipped = tuple((v, -c) for v, c in coeffs)
    return LinAtom(flipped, -const - 1), False


def _floor_div(a: int, b: int) -> int:
    return a // b  # Python's // already floors toward negative infinity.
