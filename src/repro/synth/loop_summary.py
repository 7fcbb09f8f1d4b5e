"""Loop summarisation for invariant synthesis (Section 6, Appendix A).

For *acyclic translational* loops — every variable is updated by a constant
offset, optionally guarded by one shared linear condition — the k-step
transition relation has a closed-form summary::

    fast-trans(x, y)  <=>  exists k >= 0 . trans^k(x) = y

Because the guard value changes monotonically along a translation, the
"guard holds at every step" condition collapses to at most two endpoint
checks, and ``k`` can be eliminated whenever some variable advances by +-1
per iteration.  When additionally the precondition pins every variable to a
constant, the *reachable-state set* ``inv(y) = fast-trans(x0, y)`` is itself
a loop invariant candidate; it is verified against the full specification
before being returned.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.lang.ast import Kind, Term
from repro.lang.builders import add, and_, eq, ge, int_const, or_, sub
from repro.lang.simplify import simplify
from repro.lang.traversal import free_vars
from repro.smt.linear import LinearityError, LinExpr, term_to_linexpr
from repro.sygus.problem import InvariantProblem, SygusProblem


class _NotTranslational(Exception):
    """The transition does not match the acyclic translational pattern."""


def _conjuncts(term: Term) -> List[Term]:
    if term.kind is Kind.AND:
        return list(term.args)
    return [term]


def _parse_updates(invariant: InvariantProblem) -> Dict[Term, Term]:
    """Extract ``x' = u`` update terms from the transition relation."""
    updates: Dict[Term, Term] = {}
    primed = {invariant.primed(v): v for v in invariant.variables}
    for conjunct in _conjuncts(invariant.trans):
        if conjunct.kind is not Kind.EQ:
            raise _NotTranslational()
        left, right = conjunct.args
        if left in primed:
            updates[primed[left]] = right
        elif right in primed:
            updates[primed[right]] = left
        else:
            raise _NotTranslational()
    if set(updates) != set(invariant.variables):
        raise _NotTranslational()
    for update in updates.values():
        if any(v in primed for v in free_vars(update)):
            raise _NotTranslational()
    return updates


def _constant_offset(update: Term, variable: Term) -> Optional[int]:
    """If ``update = variable + c``, return ``c``."""
    try:
        diff = term_to_linexpr(update) - term_to_linexpr(variable)
    except LinearityError:
        return None
    if diff.is_constant:
        return diff.const
    return None


def _guard_to_linexpr(guard: Term) -> Optional[LinExpr]:
    """Normalise a guard atom to ``expr >= 0`` form."""
    kind = guard.kind
    if kind not in (Kind.GE, Kind.GT, Kind.LE, Kind.LT):
        return None
    left, right = guard.args
    try:
        l, r = term_to_linexpr(left), term_to_linexpr(right)
    except LinearityError:
        return None
    if kind is Kind.GE:
        return l - r
    if kind is Kind.GT:
        return l - r + LinExpr.constant(-1)
    if kind is Kind.LE:
        return r - l
    return r - l + LinExpr.constant(-1)


def _linexpr_to_term(expr: LinExpr, env: Dict[str, Term]) -> Term:
    """Rebuild a linear expression with binary +/- only (grammar-safe)."""
    positives: List[Term] = []
    negatives: List[Term] = []
    for name, coeff in expr.coeffs:
        target = env[name]
        bucket = positives if coeff > 0 else negatives
        bucket.extend([target] * abs(coeff))
    if expr.const > 0 or not positives:
        positives.insert(0, int_const(max(expr.const, 0)))
    result = positives[0]
    for part in positives[1:]:
        result = add(result, part)
    for part in negatives:
        result = sub(result, part)
    if expr.const < 0:
        result = sub(result, int_const(-expr.const))
    return result


class TranslationalSummary:
    """The fast-trans predicate of an acyclic translational loop."""

    def __init__(
        self,
        variables: Tuple[Term, ...],
        offsets: Dict[Term, int],
        guard: Optional[LinExpr],
    ) -> None:
        self.variables = variables
        self.offsets = offsets
        self.guard = guard
        self.pivot = self._choose_pivot()

    def _choose_pivot(self) -> Term:
        for variable in self.variables:
            if abs(self.offsets[variable]) == 1:
                return variable
        raise _NotTranslational()

    def fast_trans(self, source: Dict[Term, Term], target: Dict[Term, Term]) -> Term:
        """The formula ``fast-trans(source, target)``.

        ``source``/``target`` map each loop variable to the term standing for
        its start/end value.
        """
        pivot = self.pivot
        sign = self.offsets[pivot]
        # k = sign * (target_pivot - source_pivot)
        k_term = simplify(
            sub(target[pivot], source[pivot])
            if sign == 1
            else sub(source[pivot], target[pivot])
        )
        same_state = and_(
            *(eq(target[v], source[v]) for v in self.variables)
        )
        steps: List[Term] = [ge(k_term, 1)]
        for variable in self.variables:
            offset = self.offsets[variable]
            if variable is pivot:
                continue
            if offset == 0:
                steps.append(eq(target[variable], source[variable]))
            else:
                scaled = k_term
                for _ in range(abs(offset) - 1):
                    scaled = add(scaled, k_term)
                update = (
                    add(source[variable], scaled)
                    if offset > 0
                    else sub(source[variable], scaled)
                )
                steps.append(eq(target[variable], update))
        if self.guard is not None:
            env_source = {v.payload: source[v] for v in self.variables}
            steps.append(ge(_linexpr_to_term(self.guard, env_source), 0))
            progress = sum(
                coeff * self.offsets[_lookup(self.variables, name)]
                for name, coeff in self.guard.coeffs
            )
            if progress < 0:
                # Guard decreases along the run; the last step (k-1) is the
                # binding one: guard(target - offsets) >= 0.
                env_last = {
                    v.payload: sub(target[v], int_const(self.offsets[v]))
                    if self.offsets[v] != 0
                    else target[v]
                    for v in self.variables
                }
                steps.append(ge(_linexpr_to_term(self.guard, env_last), 0))
        return simplify(or_(same_state, and_(*steps)))


def _lookup(variables: Tuple[Term, ...], name: str) -> Term:
    for variable in variables:
        if variable.payload == name:
            return variable
    raise _NotTranslational()


def summarize(invariant: InvariantProblem) -> Optional[TranslationalSummary]:
    """Try to build a translational summary of the loop; None if not matching."""
    try:
        updates = _parse_updates(invariant)
        offsets: Dict[Term, int] = {}
        guard_expr: Optional[LinExpr] = None
        guarded_seen = False
        for variable, update in updates.items():
            offset = _constant_offset(update, variable)
            if offset is not None:
                offsets[variable] = offset
                continue
            # Guarded update: ite(g, x + c, x).
            if update.kind is not Kind.ITE:
                raise _NotTranslational()
            cond, then, els = update.args
            if els is not variable:
                raise _NotTranslational()
            offset = _constant_offset(then, variable)
            if offset is None:
                raise _NotTranslational()
            lin = _guard_to_linexpr(cond)
            if lin is None:
                raise _NotTranslational()
            if guard_expr is not None and lin != guard_expr:
                raise _NotTranslational()
            guard_expr = lin
            guarded_seen = True
            offsets[variable] = offset
        if guarded_seen:
            # Unguarded non-zero offsets cannot mix with guarded ones.
            for variable, update in updates.items():
                if update.kind is not Kind.ITE and offsets[variable] != 0:
                    raise _NotTranslational()
        if all(offset == 0 for offset in offsets.values()):
            raise _NotTranslational()
        return TranslationalSummary(invariant.variables, offsets, guard_expr)
    except _NotTranslational:
        return None


def _initial_state(invariant: InvariantProblem) -> Optional[Dict[Term, Term]]:
    """If the precondition fixes every variable to a constant, return it."""
    state: Dict[Term, Term] = {}
    for conjunct in _conjuncts(invariant.pre):
        if conjunct.kind is not Kind.EQ:
            return None
        left, right = conjunct.args
        if left.kind is Kind.VAR and right.kind is Kind.CONST:
            state[left] = right
        elif right.kind is Kind.VAR and left.kind is Kind.CONST:
            state[right] = left
        else:
            return None
    if set(state) != set(invariant.variables):
        return None
    return state


def try_loop_summary(problem: SygusProblem, deducer) -> Optional[Term]:
    """Solve an invariant problem by loop summarisation, if applicable.

    Builds ``inv(y) = fast-trans(x0, y)`` for constant initial states and
    verifies it against the full three-part specification (so imprecision in
    the summary can never produce a wrong answer).
    """
    invariant = problem.invariant
    if invariant is None:
        return None
    summary = summarize(invariant)
    if summary is None:
        return None
    initial = _initial_state(invariant)
    if initial is None:
        return None
    params = problem.synth_fun.params
    target = dict(zip(invariant.variables, params))
    body = summary.fast_trans(initial, target)
    fitted = deducer.fit_to_grammar(body)
    if fitted is None:
        return None
    ok, _ = problem.verify(fitted, deducer.deadline)
    if not ok:
        return None
    deducer.stats.deduction_solved = True
    return fitted
