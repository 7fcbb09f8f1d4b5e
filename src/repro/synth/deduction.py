"""The deductive component (Section 6, Algorithm 3, Figures 7 and 8).

``deduct`` repeatedly and exhaustively applies meaning-preserving rewrite
rules to the specification.  If the simplified specification pins the
synth-fun down to a reference implementation that fits the grammar (possibly
after ``Match`` rewriting against the grammar's interpreted functions), the
problem is solved outright; otherwise the caller receives the simplified
specification for the enumerative engine to chew on.

Rule inventory implemented here:

- Figure 7 (arbitrary grammar): ``IntEq``, ``IntNeq``, ``BoolPos``,
  ``BoolNeg``, ``RemoveVar``, ``RemoveArg``, ``Match``.
- Figure 8 (``G_CLIA``): ``GeMax``, ``LeMin``, ``GeMin``, ``LeMax``, ``Eq``,
  ``NotEq``, ``CNF``.
- Loop summarisation for invariant problems lives in
  :mod:`repro.synth.loop_summary` and is invoked from here.

Together (as the paper notes) these supersede the single-invocation class
solved by CVC4's CEGQI for conjunctive/disjunctive comparison specs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.lang.ast import Kind, Term
from repro.lang.builders import (
    add,
    and_,
    eq,
    ge,
    gt,
    int_const,
    ite,
    le,
    lt,
    not_,
    or_,
    sub,
)
from repro.lang.simplify import simplify
from repro.lang.sorts import BOOL, INT
from repro.obs import forensics
from repro.lang.traversal import (
    app_occurrences,
    contains_app,
    free_vars,
    rewrite_bottom_up,
    substitute,
)
from repro.sygus.problem import SygusProblem
from repro.synth.result import SynthesisStats

#: Upper bound on the clause count produced by CNF distribution.
_MAX_CNF_CLAUSES = 128


def _rule_event(rule: str, outcome: str, **attrs) -> None:
    """One ``deduct.rule`` forensics record (Figure 7/8 rule application)."""
    forensics.emit(forensics.DEDUCT_RULE, rule=rule, outcome=outcome, **attrs)


@dataclass
class DeductionResult:
    """Outcome of a ``deduct`` call."""

    solution: Optional[Term] = None
    simplified_spec: Optional[Term] = None
    unsolvable: bool = False


# ---------------------------------------------------------------------------
# Literals: clause representation with f-comparisons made explicit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FBound:
    """A literal ``f(args) >= bound`` (``is_ge``) or ``f(args) <= bound``."""

    invocation: Term
    is_ge: bool
    bound: Term


Literal = object  # FBound or a plain Term (an f-free or opaque literal)
Clause = Tuple[Literal, ...]


def _to_nnf(term: Term, polarity: bool) -> Term:
    """Negation normal form, eliminating IMPLIES/ITE/boolean EQ."""
    kind = term.kind
    if kind is Kind.NOT:
        return _to_nnf(term.args[0], not polarity)
    if kind is Kind.AND:
        parts = [_to_nnf(a, polarity) for a in term.args]
        return and_(*parts) if polarity else or_(*parts)
    if kind is Kind.OR:
        parts = [_to_nnf(a, polarity) for a in term.args]
        return or_(*parts) if polarity else and_(*parts)
    if kind is Kind.IMPLIES:
        ante, cons = term.args
        if polarity:
            return or_(_to_nnf(ante, False), _to_nnf(cons, True))
        return and_(_to_nnf(ante, True), _to_nnf(cons, False))
    if kind is Kind.ITE and term.sort is BOOL:
        cond, then, els = term.args
        then_part = or_(_to_nnf(cond, False), _to_nnf(then, polarity))
        else_part = or_(_to_nnf(cond, True), _to_nnf(els, polarity))
        return and_(then_part, else_part)
    if kind is Kind.EQ and term.args[0].sort is BOOL:
        a, b = term.args
        if polarity:
            return and_(
                or_(_to_nnf(a, False), _to_nnf(b, True)),
                or_(_to_nnf(a, True), _to_nnf(b, False)),
            )
        return and_(
            or_(_to_nnf(a, False), _to_nnf(b, False)),
            or_(_to_nnf(a, True), _to_nnf(b, True)),
        )
    # Atom (comparison, variable, constant, application).
    if polarity:
        return term
    return _negate_atom(term)


def _negate_atom(term: Term) -> Term:
    kind = term.kind
    if kind is Kind.GE:
        return lt(term.args[0], term.args[1])
    if kind is Kind.GT:
        return le(term.args[0], term.args[1])
    if kind is Kind.LE:
        return gt(term.args[0], term.args[1])
    if kind is Kind.LT:
        return ge(term.args[0], term.args[1])
    if kind is Kind.EQ and term.args[0].sort is INT:
        return or_(
            gt(term.args[0], term.args[1]), lt(term.args[0], term.args[1])
        )
    if kind is Kind.CONST:
        from repro.lang.builders import bool_const

        return bool_const(not term.payload)
    return not_(term)


def _split_f_equalities(term: Term, fun_name: str) -> Term:
    """In NNF, split equalities/comparisons touching f into GE/LE pairs."""

    def rw(t: Term) -> Term:
        if t.kind is Kind.EQ and t.args[0].sort is INT and (
            contains_app(t, fun_name)
        ):
            return and_(ge(t.args[0], t.args[1]), le(t.args[0], t.args[1]))
        return t

    return rewrite_bottom_up(term, rw)


def _to_cnf(term: Term) -> Optional[List[Term]]:
    """Distribute to CNF; None when the clause budget would be exceeded."""
    kind = term.kind
    if kind is Kind.AND:
        clauses: List[Term] = []
        for arg in term.args:
            sub = _to_cnf(arg)
            if sub is None:
                return None
            clauses.extend(sub)
            if len(clauses) > _MAX_CNF_CLAUSES:
                return None
        return clauses
    if kind is Kind.OR:
        factor_lists: List[List[Term]] = []
        for arg in term.args:
            sub = _to_cnf(arg)
            if sub is None:
                return None
            factor_lists.append(sub)
        total = 1
        for factor in factor_lists:
            total *= len(factor)
            if total > _MAX_CNF_CLAUSES:
                return None
        clauses = []
        for combo in itertools.product(*factor_lists):
            clauses.append(or_(*combo))
        return clauses
    return [term]


def _clause_literals(clause: Term) -> List[Term]:
    if clause.kind is Kind.OR:
        return list(clause.args)
    return [clause]


def _classify_literal(literal: Term, fun_name: str) -> Literal:
    """Recognise ``f(args) >= e`` / ``<= e`` shapes (modulo strictness)."""
    kind = literal.kind
    if kind in (Kind.GE, Kind.GT, Kind.LE, Kind.LT):
        left, right = literal.args
        left_is_f = left.kind is Kind.APP and left.payload == fun_name
        right_is_f = right.kind is Kind.APP and right.payload == fun_name
        if left_is_f and not contains_app(right, fun_name):
            if kind is Kind.GE:
                return FBound(left, True, right)
            if kind is Kind.GT:
                return FBound(left, True, simplify(add(right, 1)))
            if kind is Kind.LE:
                return FBound(left, False, right)
            return FBound(left, False, simplify(add(right, -1)))
        if right_is_f and not contains_app(left, fun_name):
            if kind is Kind.GE:  # e >= f  <=>  f <= e
                return FBound(right, False, left)
            if kind is Kind.GT:
                return FBound(right, False, simplify(add(left, -1)))
            if kind is Kind.LE:
                return FBound(right, True, left)
            return FBound(right, True, simplify(add(left, 1)))
    return literal


def _literal_term(literal: Literal) -> Term:
    if isinstance(literal, FBound):
        op = ge if literal.is_ge else le
        return op(literal.invocation, literal.bound)
    return literal  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Figure 8: merging rules
# ---------------------------------------------------------------------------


def _merge_within_clause(
    literals: List[Literal], counts: Optional[Dict[str, int]] = None
) -> List[Literal]:
    """GeMin / LeMax / NotEq: merge disjoined comparisons per invocation.

    ``counts`` (when given) tallies merges per rule name for forensics.
    """

    def tally(rule: str) -> None:
        if counts is not None:
            counts[rule] = counts.get(rule, 0) + 1

    merged: List[Literal] = []
    ge_bounds: Dict[Term, Term] = {}
    le_bounds: Dict[Term, Term] = {}
    for literal in literals:
        if isinstance(literal, FBound):
            store = ge_bounds if literal.is_ge else le_bounds
            inv = literal.invocation
            if inv in store:
                e1, e2 = store[inv], literal.bound
                if literal.is_ge:
                    # f >= e1 or f >= e2  =>  f >= min(e1, e2)   (GeMin)
                    store[inv] = simplify(ite(ge(e1, e2), e2, e1))
                    tally("ge-min")
                else:
                    # f <= e1 or f <= e2  =>  f <= max(e1, e2)   (LeMax)
                    store[inv] = simplify(ite(ge(e1, e2), e1, e2))
                    tally("le-max")
            else:
                store[inv] = literal.bound
        else:
            merged.append(literal)
    for inv in list(ge_bounds):
        if inv in le_bounds:
            # NotEq: f >= e1 or f <= e2 with e1 = e2 + 2  =>  f != e1 - 1.
            if _constant_gap(ge_bounds[inv], le_bounds[inv]) == 2:
                merged.append(
                    not_(eq(inv, simplify(sub(ge_bounds[inv], int_const(1)))))
                )
                del ge_bounds[inv]
                del le_bounds[inv]
                tally("not-eq")
    for inv, bound in ge_bounds.items():
        merged.append(FBound(inv, True, bound))
    for inv, bound in le_bounds.items():
        merged.append(FBound(inv, False, bound))
    return merged


def _constant_gap(left: Term, right: Term) -> object:
    """``left - right`` when it is a constant, else None (linear reasoning)."""
    from repro.smt.linear import LinearityError, term_to_linexpr

    try:
        diff = term_to_linexpr(left) - term_to_linexpr(right)
    except LinearityError:
        return None
    return diff.const if diff.is_constant else None


def _merge_units(
    clauses: List[List[Literal]], counts: Optional[Dict[str, int]] = None
) -> List[List[Literal]]:
    """GeMax / LeMin: merge conjoined unit comparisons of one invocation."""

    def tally(rule: str) -> None:
        if counts is not None:
            counts[rule] = counts.get(rule, 0) + 1

    ge_units: Dict[Term, Term] = {}
    le_units: Dict[Term, Term] = {}
    rest: List[List[Literal]] = []
    for clause in clauses:
        if len(clause) == 1 and isinstance(clause[0], FBound):
            literal = clause[0]
            store = ge_units if literal.is_ge else le_units
            inv = literal.invocation
            if inv in store:
                e1, e2 = store[inv], literal.bound
                if literal.is_ge:
                    # f >= e1 and f >= e2  =>  f >= max(e1, e2)   (GeMax)
                    store[inv] = simplify(ite(ge(e1, e2), e1, e2))
                    tally("ge-max")
                else:
                    # f <= e1 and f <= e2  =>  f <= min(e1, e2)   (LeMin)
                    store[inv] = simplify(ite(ge(e1, e2), e2, e1))
                    tally("le-min")
            else:
                store[inv] = literal.bound
        else:
            rest.append(clause)
    for inv, bound in ge_units.items():
        rest.append([FBound(inv, True, bound)])
    for inv, bound in le_units.items():
        rest.append([FBound(inv, False, bound)])
    return rest


def _factor_common_disjuncts(clauses: List[List[Literal]]) -> List[List[Literal]]:
    """The CNF rule read right-to-left: drop duplicate/subsumed clauses."""
    unique: List[List[Literal]] = []
    seen_keys: List[frozenset] = []
    for clause in clauses:
        key = frozenset(
            _literal_term(lit) for lit in clause
        )
        subsumed = any(other <= key for other in seen_keys)
        if subsumed:
            continue
        # Remove previously kept clauses that this one subsumes.
        keep = [i for i, other in enumerate(seen_keys) if not key <= other]
        unique = [unique[i] for i in keep]
        seen_keys = [seen_keys[i] for i in keep]
        unique.append(clause)
        seen_keys.append(key)
    return unique


# ---------------------------------------------------------------------------
# The deduct procedure
# ---------------------------------------------------------------------------


class Deducer:
    """Implements Algorithm 3 for a given problem."""

    def __init__(self, problem: SygusProblem, stats: Optional[SynthesisStats] = None):
        self.problem = problem
        self.stats = stats or SynthesisStats()

    # -- SMT helpers --------------------------------------------------------------

    def _valid(self, formula: Term) -> bool:
        from repro.smt import is_valid

        self.stats.smt_checks += 1
        try:
            holds, _ = is_valid(formula)
        except Exception:
            return False
        return holds

    def _equal_terms(self, left: Term, right: Term) -> bool:
        if left is right:
            return True
        return self._valid(eq(left, right))

    # -- Entry point ------------------------------------------------------------------

    def deduct(self) -> DeductionResult:
        """Apply the rule set; see module docstring."""
        problem = self.problem
        fun_name = problem.fun_name
        spec = simplify(problem.spec)
        self.stats.deduction_steps += 1
        if not contains_app(spec, fun_name):
            # f is unconstrained: any grammar member works iff spec is valid.
            if self._valid(spec):
                _rule_event("unconstrained", "fired")
                return DeductionResult(solution=self._any_member())
            _rule_event("unconstrained", "failed")
            return DeductionResult(unsolvable=True)
        if problem.invariant is not None:
            from repro.synth.loop_summary import try_loop_summary

            summary_solution = try_loop_summary(problem, self)
            if summary_solution is not None:
                _rule_event("loop-summary", "fired")
                return DeductionResult(solution=summary_solution)
            _rule_event("loop-summary", "failed")
        removed = self._try_remove_arg(spec)
        if removed is not None:
            return removed
        spec = self._apply_remove_var(spec)
        if problem.synth_fun.return_sort is INT:
            return self._deduct_int(spec)
        return self._deduct_bool(spec)

    # -- RemoveArg (Figure 7) ----------------------------------------------------------

    def _try_remove_arg(self, spec: Term) -> Optional[DeductionResult]:
        """If f's i-th argument is the same constant at every call site,
        synthesize the (n-1)-ary function instead; the solution simply
        ignores the dropped parameter."""
        from repro.sygus.problem import SynthFun, SygusProblem

        problem = self.problem
        invocations = app_occurrences(spec, problem.fun_name)
        params = problem.synth_fun.params
        if len(params) < 2 or not invocations:
            return None
        drop_index = None
        for index in range(len(params)):
            values = {inv.args[index] for inv in invocations if len(inv.args) == len(params)}
            if len(values) == 1 and next(iter(values)).kind is Kind.CONST:
                drop_index = index
                break
        if drop_index is None:
            return None
        _rule_event("remove-arg", "attempt")
        reduced_params = params[:drop_index] + params[drop_index + 1 :]
        reduced_name = problem.fun_name + "!droparg"
        reduced_fun = SynthFun(
            reduced_name,
            reduced_params,
            problem.synth_fun.return_sort,
            problem.synth_fun.grammar,
        )
        mapping = {}
        for invocation in invocations:
            reduced_args = (
                invocation.args[:drop_index] + invocation.args[drop_index + 1 :]
            )
            mapping[invocation] = reduced_fun.apply(reduced_args)
        reduced_spec = substitute(spec, mapping)
        reduced_problem = SygusProblem(
            reduced_fun,
            reduced_spec,
            problem.variables,
            track=problem.track,
            name=problem.name + "!droparg",
        )
        result = Deducer(reduced_problem, self.stats).deduct()
        if result.solution is None:
            _rule_event("remove-arg", "failed")
            return None
        # The reduced body mentions only the surviving parameters, so it is
        # directly a body for f (which ignores the constant argument).
        body = result.solution
        if not self.problem.synth_fun.grammar.generates(body):
            _rule_event("remove-arg", "failed")
            return None
        ok, _ = self.problem.verify(body)
        if not ok:
            _rule_event("remove-arg", "failed")
            return None
        self.stats.deduction_solved = True
        _rule_event("remove-arg", "fired")
        return DeductionResult(solution=body)

    # -- RemoveVar (Figure 7) ----------------------------------------------------------

    def _apply_remove_var(self, spec: Term) -> Term:
        """Pin spec variables the specification is semantically insensitive
        to at 0 (checked by an SMT equivalence query per variable)."""
        if spec.size > 160:
            return spec  # the equivalence checks would dominate
        from repro.lang.builders import bool_var, iff, int_const, int_var
        from repro.lang.builders import var as make_var

        current = spec
        pinned = 0
        candidates = sorted(free_vars(spec), key=lambda v: v.payload)
        for variable in candidates:
            if variable not in free_vars(current):
                continue
            if variable.sort is not INT:
                continue
            invocations = app_occurrences(current, self.problem.fun_name)
            if any(variable in free_vars(inv) for inv in invocations):
                # The variable feeds f; its value can matter through f.
                continue
            # Abstract each invocation by a fresh variable: sound, and makes
            # the insensitivity check a pure QF_LIA query.
            abstraction = {
                inv: (
                    int_var(f"!F{i}")
                    if inv.sort is INT
                    else bool_var(f"!F{i}")
                )
                for i, inv in enumerate(invocations)
            }
            abstracted = substitute(current, abstraction)
            fresh = make_var(variable.payload + "!rv", variable.sort)
            renamed = substitute(abstracted, {variable: fresh})
            if self._valid(iff(abstracted, renamed)):
                current = simplify(substitute(current, {variable: int_const(0)}))
                pinned += 1
        if pinned:
            _rule_event(
                "remove-var", "fired", count=pinned,
                delta=current.size - spec.size,
            )
        return current

    def _any_member(self) -> Optional[Term]:
        from repro.sygus.grammar import minimal_member

        return minimal_member(self.problem.synth_fun.grammar)

    # -- Int-valued functions ------------------------------------------------------------

    def _deduct_int(self, spec: Term) -> DeductionResult:
        fun_name = self.problem.fun_name
        nnf = _to_nnf(spec, True)
        nnf = _split_f_equalities(nnf, fun_name)
        cnf = _to_cnf(simplify(nnf))
        if cnf is None:
            _rule_event("cnf", "failed", reason="clause-budget")
            return DeductionResult(simplified_spec=None)
        counts: Optional[Dict[str, int]] = {} if forensics.enabled() else None
        clauses = [
            _merge_within_clause(
                [_classify_literal(lit, fun_name) for lit in _clause_literals(c)],
                counts,
            )
            for c in cnf
        ]
        clauses = _merge_units(clauses, counts)
        before_factor = len(clauses)
        clauses = _factor_common_disjuncts(clauses)
        self.stats.deduction_steps += 1
        if counts is not None:
            if before_factor > len(clauses):
                counts["cnf"] = before_factor - len(clauses)
            for rule in sorted(counts):
                _rule_event(rule, "fired", count=counts[rule])

        solution = self._try_eq_rule(clauses)
        if solution is not None:
            return solution

        simplified = self._rebuild_spec(clauses)
        if simplified.size < spec.size:
            _rule_event(
                "int-rewrite", "fired", delta=simplified.size - spec.size
            )
            return DeductionResult(simplified_spec=simplified)
        return DeductionResult()

    def _try_eq_rule(self, clauses: List[List[Literal]]) -> Optional[DeductionResult]:
        """Eq + IntEq + Match: find forced ``f(y) = e`` and discharge the rest."""
        params = self.problem.synth_fun.params
        param_invocation_args = tuple(params)
        ge_units: Dict[Term, Term] = {}
        le_units: Dict[Term, Term] = {}
        other_clauses: List[List[Literal]] = []
        for clause in clauses:
            if len(clause) == 1 and isinstance(clause[0], FBound):
                literal = clause[0]
                store = ge_units if literal.is_ge else le_units
                store[literal.invocation] = literal.bound
            else:
                other_clauses.append(clause)
        for invocation in ge_units:
            if invocation not in le_units:
                continue
            lower, upper = ge_units[invocation], le_units[invocation]
            # Eq rule: f(e) >= e1 and f(e) <= e2 with T |= e1 = e2.
            if not self._equal_terms(lower, upper):
                continue
            _rule_event("eq", "attempt")
            body = self._body_from_invocation(invocation, lower)
            if body is None:
                _rule_event("eq", "failed", reason="invocation-shape")
                continue
            # IntEq: substitute the forced implementation into the residue.
            residue_terms = [
                or_(*(_literal_term(lit) for lit in clause))
                for clause in other_clauses
            ]
            residue = and_(*residue_terms) if residue_terms else None
            if residue is not None:
                inlined = self._instantiate_residue(residue, body)
                if not self._valid(inlined):
                    _rule_event("int-eq", "failed", reason="residue-invalid")
                    continue
            fitted = self.fit_to_grammar(body)
            if fitted is not None:
                self.stats.deduction_solved = True
                _rule_event("eq", "fired", delta=fitted.size)
                return DeductionResult(solution=fitted)
        return None

    def _instantiate_residue(self, residue: Term, body: Term) -> Term:
        from repro.lang.traversal import substitute_apps

        return substitute_apps(
            residue, self.problem.fun_name, self.problem.synth_fun.params, body
        )

    def _body_from_invocation(self, invocation: Term, bound: Term) -> Optional[Term]:
        """Turn ``f(args) = bound`` into a body over the formal parameters.

        Requires the argument vector to be distinct variables not occurring
        in ``bound`` except as intended; the general case inverts the
        renaming ``params -> args``.
        """
        args = invocation.args
        params = self.problem.synth_fun.params
        if len(args) != len(params):
            return None
        if len({a for a in args}) != len(args):
            return None
        if not all(a.kind is Kind.VAR for a in args):
            return None
        renaming = {arg: param for arg, param in zip(args, params)}
        body = substitute(bound, renaming)
        # Every free variable of the body must now be a parameter.
        if not free_vars(body) <= set(params):
            return None
        return simplify(body)

    def _rebuild_spec(self, clauses: List[List[Literal]]) -> Term:
        return simplify(
            and_(
                *(
                    or_(*(_literal_term(lit) for lit in clause))
                    for clause in clauses
                )
            )
        )

    # -- Bool-valued functions (BoolPos / BoolNeg) ------------------------------------------

    def _deduct_bool(self, spec: Term) -> DeductionResult:
        """Predicate synthesis via envelope extraction.

        Clauses of the form ``(not f(y)) or Phi`` give upper bounds (f must
        imply Phi — rule BoolNeg); clauses ``f(y) or Phi`` give lower bounds
        (BoolPos).  When every clause mentions f exactly once with the same
        argument vector, the conjunction of upper bounds is the weakest
        candidate; it solves the problem iff it covers every lower bound.
        """
        fun_name = self.problem.fun_name
        params = self.problem.synth_fun.params
        nnf = _to_nnf(spec, True)
        cnf = _to_cnf(simplify(nnf))
        if cnf is None:
            return DeductionResult()
        uppers: List[Term] = []
        lowers: List[Term] = []
        canonical_invocation = self.problem.synth_fun.apply_to_params()
        for clause in cnf:
            literals = _clause_literals(clause)
            f_literals = [lit for lit in literals if contains_app(lit, fun_name)]
            rest = [lit for lit in literals if not contains_app(lit, fun_name)]
            if len(f_literals) != 1:
                return DeductionResult()
            f_literal = f_literals[0]
            if f_literal.kind is Kind.APP and f_literal is not canonical_invocation:
                if f_literal.args != tuple(params):
                    return DeductionResult()
            if f_literal.kind is Kind.NOT:
                inner = f_literal.args[0]
                if inner.kind is not Kind.APP or inner.args != tuple(params):
                    return DeductionResult()
                uppers.append(or_(*rest) if rest else _false())
            elif f_literal.kind is Kind.APP:
                if f_literal.args != tuple(params):
                    return DeductionResult()
                lowers.append(not_(or_(*rest)) if rest else _true())
            else:
                return DeductionResult()
        candidate = simplify(and_(*uppers)) if uppers else _true()
        for lower in lowers:
            if not self._valid(or_(not_(lower), candidate)):
                _rule_event("bool-envelope", "failed", reason="lower-uncovered")
                return DeductionResult()
        fitted = self.fit_to_grammar(candidate)
        if fitted is None:
            return DeductionResult()
        self.stats.deduction_solved = True
        _rule_event("bool-envelope", "fired", delta=fitted.size)
        return DeductionResult(solution=fitted)

    # -- Match rule ------------------------------------------------------------------------

    def fit_to_grammar(self, body: Term) -> Optional[Term]:
        """Return a grammar-conforming equivalent of ``body`` or None (Match)."""
        grammar = self.problem.synth_fun.grammar
        if grammar.generates(body):
            return body
        rewritten = match_rewrite(body, grammar)
        if rewritten is not None and grammar.generates(rewritten):
            _rule_event("match", "fired", delta=rewritten.size - body.size)
            return rewritten
        _rule_event("match", "failed")
        return None


def _true() -> Term:
    from repro.lang.builders import bool_const

    return bool_const(True)


def _false() -> Term:
    from repro.lang.builders import bool_const

    return bool_const(False)


def match_rewrite(body: Term, grammar) -> Optional[Term]:
    """The Match rule: fold subexpressions into interpreted-function calls.

    Repeatedly matches the definition bodies of the grammar's interpreted
    functions against subexpressions of ``body`` (innermost first) and
    replaces matches with applications, until the result is a grammar member
    or no further folding applies.
    """
    from repro.lang.builders import apply_fn

    functions = list(grammar.interpreted.values())
    if not functions:
        return None
    current = body
    for _ in range(body.size):
        if grammar.generates(current):
            return current
        folded = None
        for func in functions:
            folded = _fold_once(current, func)
            if folded is not None:
                break
        if folded is None:
            return current
        current = folded
    return current


def _fold_once(term: Term, func) -> Optional[Term]:
    """Replace one innermost instance of ``func``'s body pattern, if any."""
    replaced = {"done": False}

    def rw(t: Term) -> Term:
        if replaced["done"]:
            return t
        binding = _match_pattern(func.body, t, dict.fromkeys(func.params))
        if binding is not None:
            replaced["done"] = True
            from repro.lang.builders import apply_fn

            return apply_fn(
                func.name,
                [binding[p] for p in func.params],
                func.return_sort,
            )
        return t

    result = rewrite_bottom_up(term, rw)
    return result if replaced["done"] else None


def _match_pattern(pattern: Term, target: Term, binding: Dict) -> Optional[Dict]:
    """Syntactic matching of ``pattern`` (params are wildcards) to ``target``.

    Binary +/and/or patterns additionally match n-ary flattened targets by
    trying every prefix/suffix split (so ``x1 + x1`` matches ``x+x+x+x`` as
    ``(x+x) + (x+x)``, the paper's Match example).
    """
    binding = dict(binding)

    def go(p: Term, t: Term) -> bool:
        if p in binding:
            bound = binding[p]
            if bound is None:
                binding[p] = t
                return True
            return bound is t
        if p.kind is Kind.VAR:
            return p is t
        if p.kind is not t.kind or p.payload != t.payload:
            return False
        if len(p.args) != len(t.args):
            if (
                p.kind in (Kind.ADD, Kind.AND, Kind.OR)
                and len(p.args) == 2
                and len(t.args) > 2
            ):
                saved = dict(binding)
                for split in range(1, len(t.args)):
                    left = (
                        t.args[0]
                        if split == 1
                        else Term.make(t.kind, t.args[:split], t.payload, t.sort)
                    )
                    right = (
                        t.args[split]
                        if split == len(t.args) - 1
                        else Term.make(t.kind, t.args[split:], t.payload, t.sort)
                    )
                    if go(p.args[0], left) and go(p.args[1], right):
                        return True
                    binding.clear()
                    binding.update(saved)
                return False
            return False
        saved = dict(binding)
        if all(go(pa, ta) for pa, ta in zip(p.args, t.args)):
            return True
        binding.clear()
        binding.update(saved)
        return False

    if go(pattern, target):
        return binding
    return None
