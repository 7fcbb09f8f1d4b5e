"""Integer feasibility for conjunctions of linear constraints.

Layered on the rational simplex: solve the LP relaxation, then branch on a
variable with a fractional value (``x <= floor(v)`` versus ``x >= ceil(v)``).
Completeness over the integers is guaranteed by a small-model bounding box
(Papadimitriou 1981: a feasible integer system has a solution within
``n * (m * a)^(2m+1)``), which turns branch-and-bound into a finite search.

The result is either an integer model or an *unsat core*: a subset of the
input constraint tags whose conjunction is LIA-infeasible.  Cores drive the
DPLL(T) lemma generation in :mod:`repro.smt.solver`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.smt.linear import LinExpr
from repro.smt.simplex import Bound, Conflict, Simplex

#: Tag marking bounds introduced by branching; removed from cores level-wise.
class _BranchTag:
    __slots__ = ()


class BudgetExceeded(Exception):
    """Raised when branch-and-bound exceeds its node budget."""


LiaResult = Tuple[bool, Union[Dict[str, int], List[object]]]


def check_lia(
    constraints: Sequence[Tuple[LinExpr, object]],
    max_nodes: int = 20000,
    deadline: Optional[float] = None,
) -> LiaResult:
    """Decide integer feasibility of ``{expr >= 0 for (expr, tag) in constraints}``.

    Returns ``(True, model)`` with an integer model, or ``(False, core)``
    where ``core`` is a list of tags of a jointly infeasible subset.

    Raises:
        BudgetExceeded: when the node budget runs out (should be rare; the
            budget exists to bound pathological branching).
    """
    # One pass: the first constantly false constraint decides, constantly
    # true ones drop out, and the rest give the names and the largest
    # magnitude for the box.
    names: Set[str] = set()
    add_name = names.add
    real_constraints: List[Tuple[LinExpr, object]] = []
    biggest = 1
    for constraint in constraints:
        expr = constraint[0]
        coeffs = expr.coeffs
        const = expr.const
        if not coeffs:
            if const < 0:
                return False, [constraint[1]]
            continue
        real_constraints.append(constraint)
        if const > biggest or -const > biggest:
            biggest = abs(const)
        for name, coeff in coeffs:
            add_name(name)
            if coeff > biggest or -coeff > biggest:
                biggest = abs(coeff)
    if not real_constraints:
        return True, {}
    var_names = sorted(names)
    box = _small_model_bound(len(real_constraints), len(var_names), biggest)
    search = _Search(var_names, real_constraints, box, max_nodes, deadline)
    outcome = search.solve()
    if isinstance(outcome, dict):
        return True, outcome
    core: List[object] = []
    seen: Set[int] = set()
    for tag in outcome:
        if tag is None or isinstance(tag, _BranchTag):
            continue
        if id(tag) not in seen:
            seen.add(id(tag))
            core.append(tag)
    return False, core


def _small_model_bound(num_constraints: int, num_vars: int, biggest: int) -> int:
    """Papadimitriou's bound for ``num_constraints`` constraints over
    ``num_vars`` variables whose largest absolute coefficient or constant
    is ``biggest``."""
    # Cap the exponent so the integer stays tractable while remaining
    # astronomically above anything synthesis produces.
    exponent = min(2 * num_constraints + 1, 40)
    return num_vars * (num_constraints * biggest + 1) ** exponent


class _Search:
    """Depth-first branch-and-bound over one simplex tableau.

    The box and the constraints are asserted once, at the root.  Each child
    node pushes a level, asserts its branch bound and re-checks from the
    parent's basis; leaving the node pops the level again.
    """

    def __init__(
        self,
        var_names: Sequence[str],
        constraints: Sequence[Tuple[LinExpr, object]],
        box: int,
        max_nodes: int,
        deadline: Optional[float] = None,
    ) -> None:
        self._simplex = Simplex()
        # Variable ``i`` of the tableau is ``var_names[i]``.
        self._names = var_names
        self._constraints = constraints
        self._box = box
        self._nodes_left = max_nodes
        self._deadline = deadline

    def solve(self):
        """Returns an int model dict, or a list of tags (conflict core).

        Iterative depth-first branch-and-bound.  Conflict cores of sibling
        branches are merged with their branch tags stripped, which is sound:
        if ``A ∪ {x <= f}`` and ``B ∪ {x >= f+1}`` are both infeasible then
        ``A ∪ B`` forces ``f < x < f+1``, which no integer satisfies.
        """
        result = self._solve_root()
        if not isinstance(result, tuple):
            return result
        # One frame per node that branched: ``[var, floor, tag, cores]``,
        # where ``cores`` collects its children's stripped cores, low first.
        # Every frame but the root's sits on its own simplex level.
        stack: List[list] = [[*result, _BranchTag(), []]]
        core: Optional[List[object]] = None
        while stack:
            frame = stack[-1]
            var, floor_v, tag, cores = frame
            if core is not None:
                cores.append([t for t in core if t is not tag])
                core = None
            if len(cores) == 2:
                stack.pop()
                if stack:
                    self._simplex.pop()
                core = cores[0] + cores[1]
                continue
            if cores:
                bound = Bound(var, True, floor_v + 1, tag)
            else:
                bound = Bound(var, False, floor_v, tag)
            outcome = self._solve_child(bound)
            if isinstance(outcome, dict):
                return outcome
            if isinstance(outcome, list):
                self._simplex.pop()
                core = outcome
                continue
            stack.append([*outcome, _BranchTag(), []])
        return core if core is not None else []

    def _count_node(self) -> None:
        if self._nodes_left <= 0:
            raise BudgetExceeded("branch-and-bound node budget exhausted")
        if self._deadline is not None and self._nodes_left % 32 == 0:
            if time.monotonic() > self._deadline:
                raise BudgetExceeded("branch-and-bound deadline exceeded")
        self._nodes_left -= 1

    def _solve_root(self):
        """Build the tableau and solve the root LP relaxation.

        Returns an int model (dict), a conflict core (list), or a branching
        request ``(var, floor_value)`` (tuple) when fractional.
        """
        self._count_node()
        try:
            self._build_root()
            self._simplex.check()
        except Conflict as conflict:
            return [blame.tag for blame in conflict.bounds]
        return self._branch_or_model()

    def _build_root(self) -> None:
        """Box every variable and assert every constraint on the fresh tableau.

        Variable ``i`` is ``names[i]``, and a slack per distinct
        multi-variable form follows in order of first use.  The box is
        written directly with the variables (``Simplex.new_boxed_vars``);
        the constraints are then asserted in order.  Every variable is still
        nonbasic, so each slack's row is its combination as given.
        """
        simplex = self._simplex
        assert_bound = simplex.assert_bound
        simplex.new_boxed_vars(len(self._names), self._box)
        index = {name: var for var, name in enumerate(self._names)}
        slack_cache: Dict[Tuple[Tuple[str, int], ...], int] = {}
        # expr >= 0  <=>  sum(c_i x_i) >= -const.
        for expr, tag in self._constraints:
            coeffs = expr.coeffs
            threshold = -expr.const
            if len(coeffs) == 1:
                name, coeff = coeffs[0]
                if coeff > 0:
                    # x >= ceil(threshold / coeff)
                    bound = Bound(index[name], True, -(-threshold // coeff), tag)
                else:
                    # x <= floor(threshold / coeff)
                    bound = Bound(index[name], False, threshold // coeff, tag)
            else:
                slack = slack_cache.get(coeffs)
                if slack is None:
                    slack = simplex.new_slack(
                        {index[name]: coeff for name, coeff in coeffs}
                    )
                    slack_cache[coeffs] = slack
                bound = Bound(slack, True, threshold, tag)
            assert_bound(bound)

    def _solve_child(self, bound: Bound):
        """Push a level holding ``bound`` and solve the LP relaxation there.

        Same results as :meth:`_solve_root`; the caller pops the level.
        """
        self._count_node()
        simplex = self._simplex
        simplex.push()
        try:
            simplex.assert_bound(bound)
            simplex.check()
        except Conflict as conflict:
            return [blame.tag for blame in conflict.bounds]
        return self._branch_or_model()

    def _branch_or_model(self):
        """The integer model, or a branch on the most fractional variable."""
        raw_value = self._simplex.raw_value
        names = self._names
        best = None
        best_dist, best_den = 0, 1
        for var in range(len(names)):
            num, den = raw_value(var)
            rem = num % den
            if rem:
                # Distance to the nearest integer is dist / den; compare
                # exactly, the first (in name order) of the largest wins.
                dist = min(rem, den - rem)
                if best is None or dist * best_den > best_dist * den:
                    best, best_dist, best_den = (var, num // den), dist, den
        if best is None:
            model = {}
            for var, name in enumerate(names):
                num, den = raw_value(var)
                model[name] = num // den
            return model
        return best
