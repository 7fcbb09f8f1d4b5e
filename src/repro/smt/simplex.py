"""Exact rational simplex for bound-constrained linear variables.

This is the general simplex of Dutertre and de Moura ("A fast linear-
arithmetic solver for DPLL(T)", CAV 2006): variables carry optional
lower/upper bounds, auxiliary (slack) variables are defined as linear
combinations of the originals, and a Bland-rule pivoting loop either finds
an assignment within all bounds or reports a conflicting set of bounds (the
infeasibility explanation used for DPLL(T) lemmas).

Bounds are backtrackable: :meth:`Simplex.push` marks a level and
:meth:`Simplex.pop` restores every bound tightened since the mark, keeping
the tableau and the assignment, so a caller exploring nearby bound sets
(branch-and-bound) re-checks from the last feasible basis instead of from
scratch.  Bounds and slack coefficients are integers; the tableau and the
assignment are the tuple rationals of :mod:`repro.smt.rational`.
"""

from __future__ import annotations

#: Process-wide pivot tally (index 0), read by the telemetry layer: the SMT
#: driver reports per-query deltas of :func:`pivots_total` as the
#: ``smt.simplex_pivots`` metric.  A bare list keeps the hot-path cost to a
#: single indexed increment.
_PIVOT_TALLY = [0]


def pivots_total() -> int:
    """Simplex pivots performed by this process since import."""
    return _PIVOT_TALLY[0]

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.smt.rational import (
    Rat,
    ZERO,
    is_zero,
    radd,
    rdiv,
    rlt,
    rmul,
    rneg,
    rsub,
)


@dataclass(frozen=True)
class Bound:
    """A bound ``var >= value`` (lower) or ``var <= value`` (upper).

    ``tag`` identifies the asserting atom for conflict explanations; ``None``
    marks artificial bounds (e.g. small-model boxes) that are dropped from
    explanations.
    """

    var: int
    is_lower: bool
    value: int
    tag: Optional[object] = None


class Conflict(Exception):
    """Raised when the asserted bounds are jointly infeasible."""

    def __init__(self, bounds: Sequence[Bound]):
        super().__init__("infeasible bounds")
        self.bounds = list(bounds)


class Simplex:
    """Feasibility checker for a system of bounded linear variables.

    Usage: create variables with :meth:`new_var`, define slack variables with
    :meth:`new_slack`, assert bounds with :meth:`assert_bound`, then call
    :meth:`check`.  Bounds asserted after :meth:`push` are retracted by the
    matching :meth:`pop`.
    """

    def __init__(self) -> None:
        self._num_vars = 0
        # Tableau: basic var -> {nonbasic var: coeff}.
        self._rows: Dict[int, Dict[int, Rat]] = {}
        self._is_basic: List[bool] = []
        self._lower: List[Optional[Bound]] = []
        self._upper: List[Optional[Bound]] = []
        self._lower_val: List[Optional[Rat]] = []
        self._upper_val: List[Optional[Rat]] = []
        self._assign: List[Rat] = []
        # Bounds overwritten since the open levels began, as
        # ``(var, is_lower, old_bound, old_value)``, and the trail length at
        # each :meth:`push`.
        self._trail: List[Tuple[int, bool, Optional[Bound], Optional[Rat]]] = []
        self._levels: List[int] = []

    def new_var(self) -> int:
        index = self._num_vars
        self._num_vars += 1
        self._is_basic.append(False)
        self._lower.append(None)
        self._upper.append(None)
        self._lower_val.append(None)
        self._upper_val.append(None)
        self._assign.append(ZERO)
        return index

    def new_slack(self, combo: Dict[int, int]) -> int:
        """A fresh basic variable defined as ``sum(coeff * var)``."""
        index = self.new_var()
        row: Dict[int, Rat] = {}
        for var, int_coeff in combo.items():
            if not int_coeff:
                continue
            coeff = (int_coeff, 1)
            if self._is_basic[var]:
                for inner_var, inner_coeff in self._rows[var].items():
                    merged = radd(row.get(inner_var, ZERO), rmul(coeff, inner_coeff))
                    if is_zero(merged):
                        row.pop(inner_var, None)
                    else:
                        row[inner_var] = merged
            else:
                merged = radd(row.get(var, ZERO), coeff)
                if is_zero(merged):
                    row.pop(var, None)
                else:
                    row[var] = merged
        value = ZERO
        for var, coeff in row.items():
            value = radd(value, rmul(coeff, self._assign[var]))
        self._rows[index] = row
        self._is_basic[index] = True
        self._assign[index] = value
        return index

    def push(self) -> None:
        """Open a level: the next :meth:`pop` retracts bounds asserted after it."""
        self._levels.append(len(self._trail))

    def pop(self) -> None:
        """Restore every bound overwritten since the matching :meth:`push`.

        The assignment stays: popping only relaxes bounds, so every nonbasic
        variable is still within its bounds and the next :meth:`check`
        starts from the current basis.
        """
        mark = self._levels.pop()
        trail = self._trail
        while len(trail) > mark:
            var, is_lower, bound, value = trail.pop()
            if is_lower:
                self._lower[var] = bound
                self._lower_val[var] = value
            else:
                self._upper[var] = bound
                self._upper_val[var] = value

    def assert_bound(self, bound: Bound) -> None:
        """Assert a bound, keeping only the strongest per direction."""
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
        if is_zero(delta):
            return
        self._assign[nonbasic] = value
        for basic, row in self._rows.items():
            coeff = row.get(nonbasic)
            if coeff is not None:
                self._assign[basic] = radd(self._assign[basic], rmul(coeff, delta))

    def _pivot(self, basic: int, nonbasic: int) -> None:
        _PIVOT_TALLY[0] += 1
        row = self._rows.pop(basic)
        coeff = row.pop(nonbasic)
        # basic = coeff * nonbasic + rest  =>  nonbasic = (basic - rest)/coeff
        inverse = rdiv((1, 1), coeff)
        new_row: Dict[int, Rat] = {basic: inverse}
        for var, c in row.items():
            new_row[var] = rneg(rdiv(c, coeff))
        self._is_basic[basic] = False
        self._is_basic[nonbasic] = True
        self._rows[nonbasic] = new_row
        # Substitute into all other rows mentioning `nonbasic`.
        for other, other_row in self._rows.items():
            if other == nonbasic:
                continue
            factor = other_row.pop(nonbasic, None)
            if factor is None:
                continue
            for var, c in new_row.items():
                merged = radd(other_row.get(var, ZERO), rmul(factor, c))
                if is_zero(merged):
                    other_row.pop(var, None)
                else:
                    other_row[var] = merged

    def _pivot_and_update(self, basic: int, nonbasic: int, value: Rat) -> None:
        row = self._rows[basic]
        coeff = row[nonbasic]
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
        """Pivot until all bounds hold.

        Returns True and leaves a feasible assignment in place, or raises
        :class:`Conflict` carrying the explanation bounds.
        """
        while True:
            violated = self._find_violated_basic()
            if violated is None:
                return True
            basic, need_increase = violated
            row = self._rows[basic]
            target = (
                self._lower_val[basic] if need_increase else self._upper_val[basic]
            )
            assert target is not None
            pivot_var = self._find_pivot(row, need_increase)
            if pivot_var is None:
                raise Conflict(self._explain(basic, need_increase))
            self._pivot_and_update(basic, pivot_var, target)

    def _find_violated_basic(self) -> Optional[Tuple[int, bool]]:
        # Bland's rule: smallest index first, guaranteeing termination.
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
            positive = coeff[0] > 0
            if need_increase:
                can_help = (positive and self._can_increase(nonbasic)) or (
                    not positive and self._can_decrease(nonbasic)
                )
            else:
                can_help = (positive and self._can_decrease(nonbasic)) or (
                    not positive and self._can_increase(nonbasic)
                )
            if can_help:
                best = nonbasic
        return best

    def _can_increase(self, var: int) -> bool:
        upper = self._upper_val[var]
        return upper is None or rlt(self._assign[var], upper)

    def _can_decrease(self, var: int) -> bool:
        lower = self._lower_val[var]
        return lower is None or rlt(lower, self._assign[var])

    def _explain(self, basic: int, need_increase: bool) -> List[Bound]:
        """Bounds responsible for the infeasibility of ``basic``'s row."""
        explanation: List[Bound] = []
        own = self._lower[basic] if need_increase else self._upper[basic]
        assert own is not None
        explanation.append(own)
        for nonbasic, coeff in self._rows[basic].items():
            positive = coeff[0] > 0
            if need_increase:
                blocking = self._upper[nonbasic] if positive else self._lower[nonbasic]
            else:
                blocking = self._lower[nonbasic] if positive else self._upper[nonbasic]
            assert blocking is not None, "pivot search said this bound blocks"
            explanation.append(blocking)
        return explanation

    def raw_value(self, var: int) -> Rat:
        """The current assignment of ``var``, as an unnormalised rational."""
        return self._assign[var]

    @property
    def num_vars(self) -> int:
        return self._num_vars
