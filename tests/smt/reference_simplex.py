"""Reference simplex over tuple rationals, for equality tests only.

This is the tableau :class:`repro.smt.simplex.Simplex` used before it went
fraction-free: every row entry and every assignment is an unnormalised
``(num, den)`` tuple, reduced only when a component grows past 64 bits.
It shares :class:`Bound` and :class:`Conflict` with the real simplex, so the
two can be driven with the same calls and their conflicts compared
directly.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Optional, Tuple

from repro.smt.simplex import Bound, Conflict

Rat = Tuple[int, int]

ZERO: Rat = (0, 1)


def _norm(num: int, den: int) -> Rat:
    if den < 0:
        num, den = -num, -den
    if den.bit_length() > 64 or num.bit_length() > 64:
        if num == 0:
            return ZERO
        g = gcd(num, den)
        return (num // g, den // g)
    return (num, den)


def radd(a: Rat, b: Rat) -> Rat:
    if a[1] == b[1]:
        return _norm(a[0] + b[0], a[1])
    return _norm(a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def rsub(a: Rat, b: Rat) -> Rat:
    return radd(a, (-b[0], b[1]))


def rmul(a: Rat, b: Rat) -> Rat:
    return _norm(a[0] * b[0], a[1] * b[1])


def rdiv(a: Rat, b: Rat) -> Rat:
    return _norm(a[0] * b[1], a[1] * b[0])


def rlt(a: Rat, b: Rat) -> bool:
    return a[0] * b[1] < b[0] * a[1]


class ReferenceSimplex:
    """The same interface and decisions as :class:`repro.smt.simplex.Simplex`.

    ``pivots`` counts this instance's pivots, the reference's analogue of
    :func:`repro.smt.simplex.pivots_total`.
    """

    def __init__(self) -> None:
        self.pivots = 0
        self._rows: Dict[int, Dict[int, Rat]] = {}
        self._is_basic: List[bool] = []
        self._lower: List[Optional[Bound]] = []
        self._upper: List[Optional[Bound]] = []
        self._lower_val: List[Optional[Rat]] = []
        self._upper_val: List[Optional[Rat]] = []
        self._assign: List[Rat] = []
        self._trail: List[Tuple[int, bool, Optional[Bound], Optional[Rat]]] = []
        self._levels: List[int] = []

    def new_var(self) -> int:
        self._is_basic.append(False)
        self._lower.append(None)
        self._upper.append(None)
        self._lower_val.append(None)
        self._upper_val.append(None)
        self._assign.append(ZERO)
        return len(self._assign) - 1

    def new_slack(self, combo: Dict[int, int]) -> int:
        index = self.new_var()
        row: Dict[int, Rat] = {}
        for var, int_coeff in combo.items():
            if not int_coeff:
                continue
            coeff = (int_coeff, 1)
            if self._is_basic[var]:
                terms = [(v, rmul(coeff, c)) for v, c in self._rows[var].items()]
            else:
                terms = [(var, coeff)]
            for inner_var, inner_coeff in terms:
                merged = radd(row.get(inner_var, ZERO), inner_coeff)
                if merged[0] == 0:
                    row.pop(inner_var, None)
                else:
                    row[inner_var] = merged
        value = ZERO
        for var, coeff in row.items():
            value = radd(value, rmul(coeff, self._assign[var]))
        self._rows[index] = row
        self._is_basic[index] = True
        self._assign[index] = value
        return index

    def push(self) -> None:
        self._levels.append(len(self._trail))

    def pop(self) -> None:
        mark = self._levels.pop()
        while len(self._trail) > mark:
            var, is_lower, bound, value = self._trail.pop()
            if is_lower:
                self._lower[var] = bound
                self._lower_val[var] = value
            else:
                self._upper[var] = bound
                self._upper_val[var] = value

    def assert_bound(self, bound: Bound) -> None:
        value = (bound.value, 1)
        var = bound.var
        is_lower = bound.is_lower
        store_val = self._lower_val if is_lower else self._upper_val
        store = self._lower if is_lower else self._upper
        current = store_val[var]
        if current is not None:
            if is_lower and not rlt(current, value):
                return
            if not is_lower and not rlt(value, current):
                return
        opposite_val = self._upper_val[var] if is_lower else self._lower_val[var]
        if opposite_val is not None:
            opposite = self._upper[var] if is_lower else self._lower[var]
            if is_lower and rlt(opposite_val, value):
                raise Conflict([bound, opposite])
            if not is_lower and rlt(value, opposite_val):
                raise Conflict([bound, opposite])
        if self._levels:
            self._trail.append((var, is_lower, store[var], current))
        store[var] = bound
        store_val[var] = value
        if not self._is_basic[var]:
            if is_lower and rlt(self._assign[var], value):
                self._update(var, value)
            elif not is_lower and rlt(value, self._assign[var]):
                self._update(var, value)

    def _update(self, nonbasic: int, value: Rat) -> None:
        delta = rsub(value, self._assign[nonbasic])
        self._assign[nonbasic] = value
        for basic, row in self._rows.items():
            coeff = row.get(nonbasic)
            if coeff is not None:
                self._assign[basic] = radd(self._assign[basic], rmul(coeff, delta))

    def _pivot(self, basic: int, nonbasic: int) -> None:
        self.pivots += 1
        row = self._rows.pop(basic)
        coeff = row.pop(nonbasic)
        new_row: Dict[int, Rat] = {basic: rdiv((1, 1), coeff)}
        for var, c in row.items():
            new_row[var] = rdiv((-c[0], c[1]), coeff)
        self._is_basic[basic] = False
        self._is_basic[nonbasic] = True
        self._rows[nonbasic] = new_row
        for other, other_row in self._rows.items():
            if other == nonbasic:
                continue
            factor = other_row.pop(nonbasic, None)
            if factor is None:
                continue
            for var, c in new_row.items():
                merged = radd(other_row.get(var, ZERO), rmul(factor, c))
                if merged[0] == 0:
                    other_row.pop(var, None)
                else:
                    other_row[var] = merged

    def _pivot_and_update(self, basic: int, nonbasic: int, value: Rat) -> None:
        coeff = self._rows[basic][nonbasic]
        theta = rdiv(rsub(value, self._assign[basic]), coeff)
        self._assign[basic] = value
        self._assign[nonbasic] = radd(self._assign[nonbasic], theta)
        for other, other_row in self._rows.items():
            if other == basic:
                continue
            c = other_row.get(nonbasic)
            if c is not None:
                self._assign[other] = radd(self._assign[other], rmul(c, theta))
        self._pivot(basic, nonbasic)

    def check(self) -> bool:
        while True:
            violated = self._find_violated_basic()
            if violated is None:
                return True
            basic, need_increase = violated
            target = (
                self._lower_val[basic] if need_increase else self._upper_val[basic]
            )
            pivot_var = self._find_pivot(self._rows[basic], need_increase)
            if pivot_var is None:
                raise Conflict(self._explain(basic, need_increase))
            self._pivot_and_update(basic, pivot_var, target)

    def _find_violated_basic(self) -> Optional[Tuple[int, bool]]:
        best = None
        for basic in self._rows:
            if best is not None and basic >= best[0]:
                continue
            lower = self._lower_val[basic]
            if lower is not None and rlt(self._assign[basic], lower):
                best = (basic, True)
                continue
            upper = self._upper_val[basic]
            if upper is not None and rlt(upper, self._assign[basic]):
                best = (basic, False)
        return best

    def _find_pivot(self, row: Dict[int, Rat], need_increase: bool) -> Optional[int]:
        best = None
        for nonbasic, coeff in row.items():
            if best is not None and nonbasic >= best:
                continue
            if (coeff[0] > 0) == need_increase:
                upper = self._upper_val[nonbasic]
                can_help = upper is None or rlt(self._assign[nonbasic], upper)
            else:
                lower = self._lower_val[nonbasic]
                can_help = lower is None or rlt(lower, self._assign[nonbasic])
            if can_help:
                best = nonbasic
        return best

    def _explain(self, basic: int, need_increase: bool) -> List[Bound]:
        own = self._lower[basic] if need_increase else self._upper[basic]
        explanation = [own]
        for nonbasic, coeff in self._rows[basic].items():
            if (coeff[0] > 0) == need_increase:
                explanation.append(self._upper[nonbasic])
            else:
                explanation.append(self._lower[nonbasic])
        return explanation

    def raw_value(self, var: int) -> Rat:
        return self._assign[var]
