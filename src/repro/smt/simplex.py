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
scratch.

The arithmetic is fraction-free.  Each tableau row maps nonbasic variables
to integer coefficients over one positive row denominator,
``den * basic = sum(a_j * x_j)``, kept in lowest terms by one ``gcd`` per
row a pivot touches.  Bounds and slack coefficients are integers, and a
nonbasic variable always sits on an integer (zero, or the bound it was last
moved to), so every assignment is an integer numerator over its row's
denominator.  Each row's key order is part of the contract:
:meth:`Simplex._explain` walks it, and that order becomes the conflict, the
unsat core and the DPLL(T) lemma.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Process-wide pivot tally (index 0), read by the telemetry layer: the SMT
#: driver reports per-query deltas of :func:`pivots_total` as the
#: ``smt.simplex_pivots`` metric.  A bare list keeps the hot-path cost to a
#: single indexed increment.
_PIVOT_TALLY = [0]


def pivots_total() -> int:
    """Simplex pivots performed by this process since import."""
    return _PIVOT_TALLY[0]


class Bound(NamedTuple):
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

    Usage: create variables with :meth:`new_var` (or boxed ones in bulk with
    :meth:`new_boxed_vars`), define slack variables with :meth:`new_slack`,
    assert bounds with :meth:`assert_bound`, then call :meth:`check`.
    Bounds asserted after :meth:`push` are retracted by the matching
    :meth:`pop`.
    """

    def __init__(self) -> None:
        # Tableau: basic var -> {nonbasic var: coeff}, scaled by _den[basic].
        self._rows: Dict[int, Dict[int, int]] = {}
        self._is_basic: List[bool] = []
        self._lower: List[Optional[Bound]] = []
        self._upper: List[Optional[Bound]] = []
        self._lower_val: List[Optional[int]] = []
        self._upper_val: List[Optional[int]] = []
        # The assignment of var is _num[var] / _den[var]; _den is the row
        # denominator of a basic var and 1 for a nonbasic one.
        self._num: List[int] = []
        self._den: List[int] = []
        # Bounds overwritten since the open levels began, as
        # ``(var, is_lower, old_bound, old_value)``, and the trail length at
        # each :meth:`push`.
        self._trail: List[Tuple[int, bool, Optional[Bound], Optional[int]]] = []
        self._levels: List[int] = []

    def new_var(self) -> int:
        index = len(self._num)
        self._is_basic.append(False)
        self._lower.append(None)
        self._upper.append(None)
        self._lower_val.append(None)
        self._upper_val.append(None)
        self._num.append(0)
        self._den.append(1)
        return index

    def new_boxed_vars(self, count: int, box: int) -> None:
        """``count`` fresh nonbasic variables at 0, each within ``[-box, box]``.

        The state of ``new_var`` followed by ``assert_bound`` of
        ``Bound(var, True, -box, None)`` and ``Bound(var, False, box, None)``
        for each variable in turn (``box >= 0``, no level open), written
        directly: a fresh variable at 0 has nothing to move or to conflict
        with.
        """
        start = len(self._num)
        variables = range(start, start + count)
        self._is_basic.extend([False] * count)
        self._lower.extend([Bound(var, True, -box, None) for var in variables])
        self._upper.extend([Bound(var, False, box, None) for var in variables])
        self._lower_val.extend([-box] * count)
        self._upper_val.extend([box] * count)
        self._num.extend([0] * count)
        self._den.extend([1] * count)

    def new_slack(self, combo: Dict[int, int]) -> int:
        """A fresh basic variable defined as ``sum(coeff * var)``."""
        is_basic = self._is_basic
        den = self._den
        row: Dict[int, int] = {}
        row_den = 1
        for var, coeff in combo.items():
            if not coeff:
                continue
            if is_basic[var]:
                # Add coeff * (var's row / its den) over the common multiple.
                inner_den = den[var]
                common = row_den * inner_den // gcd(row_den, inner_den)
                if common != row_den:
                    scale = common // row_den
                    for key in row:
                        row[key] *= scale
                    row_den = common
                factor = coeff * (common // inner_den)
                terms = self._rows[var].items()
            else:
                factor = row_den
                terms = ((var, coeff),)
            for inner_var, inner_coeff in terms:
                merged = row.get(inner_var, 0) + factor * inner_coeff
                if merged:
                    row[inner_var] = merged
                else:
                    del row[inner_var]
        if row_den > 1:
            common = gcd(row_den, *row.values())
            if common > 1:
                row_den //= common
                for key in row:
                    row[key] //= common
        num = self._num
        index = self.new_var()
        self._rows[index] = row
        is_basic[index] = True
        num[index] = sum(coeff * num[var] for var, coeff in row.items())
        den[index] = row_den
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
        var, is_lower, value, _ = bound
        if is_lower:
            current = self._lower_val[var]
            if current is not None and current >= value:
                return
            opposite = self._upper_val[var]
            if opposite is not None and opposite < value:
                raise Conflict([bound, self._upper[var]])
            if self._levels:
                self._trail.append((var, True, self._lower[var], current))
            self._lower[var] = bound
            self._lower_val[var] = value
            if not self._is_basic[var] and self._num[var] < value:
                self._update(var, value)
        else:
            current = self._upper_val[var]
            if current is not None and current <= value:
                return
            opposite = self._lower_val[var]
            if opposite is not None and opposite > value:
                raise Conflict([bound, self._lower[var]])
            if self._levels:
                self._trail.append((var, False, self._upper[var], current))
            self._upper[var] = bound
            self._upper_val[var] = value
            if not self._is_basic[var] and self._num[var] > value:
                self._update(var, value)

    def _update(self, nonbasic: int, value: int) -> None:
        num = self._num
        delta = value - num[nonbasic]
        num[nonbasic] = value
        for basic, row in self._rows.items():
            coeff = row.get(nonbasic)
            if coeff is not None:
                num[basic] += coeff * delta

    def _pivot_and_update(self, basic: int, nonbasic: int, value: int) -> None:
        """Move ``basic`` to ``value`` and swap it with ``nonbasic``."""
        _PIVOT_TALLY[0] += 1
        rows = self._rows
        num = self._num
        den = self._den
        row = rows.pop(basic)
        coeff = row.pop(nonbasic)
        # den_b * basic = coeff * nonbasic + rest, so
        # |coeff| * nonbasic = ±(den_b * basic - rest): a row in lowest terms
        # because the old one was.  ``gap / coeff`` is the step of nonbasic.
        basic_den = den[basic]
        gap = value * basic_den - num[basic]
        sign = 1 if coeff > 0 else -1
        new_den = sign * coeff
        new_row = {basic: sign * basic_den}
        for var, c in row.items():
            new_row[var] = -sign * c
        num[basic] = value
        den[basic] = 1
        num[nonbasic] = sign * (num[nonbasic] * coeff + gap)
        den[nonbasic] = new_den
        self._is_basic[basic] = False
        self._is_basic[nonbasic] = True
        # Substitute into every other row mentioning `nonbasic`, over the
        # product of the two denominators, then back to lowest terms.  The
        # numerator is the row applied to integer values, so the gcd of the
        # row divides it too.
        step = sign * gap
        for other, other_row in rows.items():
            factor = other_row.pop(nonbasic, None)
            if factor is None:
                continue
            other_num = num[other] * new_den + factor * step
            other_den = den[other] * new_den
            if new_den != 1:
                for var in other_row:
                    other_row[var] *= new_den
            for var, c in new_row.items():
                merged = other_row.get(var, 0) + factor * c
                if merged:
                    other_row[var] = merged
                else:
                    del other_row[var]
            if other_den > 1:
                common = gcd(other_den, *other_row.values())
                if common > 1:
                    other_den //= common
                    other_num //= common
                    for var in other_row:
                        other_row[var] //= common
            num[other] = other_num
            den[other] = other_den
        rows[nonbasic] = new_row

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
        num = self._num
        den = self._den
        lower_val = self._lower_val
        upper_val = self._upper_val
        best = None
        for basic in self._rows:
            if best is not None and basic >= best[0]:
                continue
            lower = lower_val[basic]
            if lower is not None and num[basic] < lower * den[basic]:
                best = (basic, True)
                continue
            upper = upper_val[basic]
            if upper is not None and num[basic] > upper * den[basic]:
                best = (basic, False)
        return best

    def _find_pivot(self, row: Dict[int, int], need_increase: bool) -> Optional[int]:
        # A row's variables are nonbasic, so their values are integers.
        num = self._num
        lower_val = self._lower_val
        upper_val = self._upper_val
        best = None
        for nonbasic, coeff in row.items():
            if best is not None and nonbasic >= best:
                continue
            if (coeff > 0) == need_increase:
                upper = upper_val[nonbasic]
                can_help = upper is None or num[nonbasic] < upper
            else:
                lower = lower_val[nonbasic]
                can_help = lower is None or lower < num[nonbasic]
            if can_help:
                best = nonbasic
        return best

    def _explain(self, basic: int, need_increase: bool) -> List[Bound]:
        """Bounds responsible for the infeasibility of ``basic``'s row."""
        explanation: List[Bound] = []
        own = self._lower[basic] if need_increase else self._upper[basic]
        assert own is not None
        explanation.append(own)
        for nonbasic, coeff in self._rows[basic].items():
            if (coeff > 0) == need_increase:
                blocking = self._upper[nonbasic]
            else:
                blocking = self._lower[nonbasic]
            assert blocking is not None, "pivot search said this bound blocks"
            explanation.append(blocking)
        return explanation

    def raw_value(self, var: int) -> Tuple[int, int]:
        """The current assignment of ``var`` as ``(num, den)``, ``den > 0``."""
        return self._num[var], self._den[var]
