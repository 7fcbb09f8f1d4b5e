"""Formula normalisation and Tseitin CNF encoding.

Pipeline: one bottom-up pass lifts integer ``ite`` terms out of comparisons
and splits integer equalities into two inequalities, every comparison is
canonicalised into a :class:`~repro.smt.linear.LinAtom`, and the boolean
skeleton is encoded into CNF with one SAT variable per distinct atom/boolean
variable and one definition variable per connective (Tseitin
transformation).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.lang.ast import Kind, Term
from repro.lang.builders import and_, ge, int_const
from repro.lang.sorts import BOOL, INT
from repro.lang.traversal import rewrite_bottom_up
from repro.smt.linear import LinAtom, canonical_atom, term_to_linexpr
from repro.smt.sat import SatSolver

_COMPARISON_KINDS = (Kind.GE, Kind.GT, Kind.LE, Kind.LT)

#: Every formula prepared in this process -> its prepared form; see
#: :func:`prepare_formula`.
_prepared: Dict[Term, Term] = {}

#: Comparison term -> (canonical atom or None, positive, trivial truth
#: value); see :func:`comparison_entry`.
_comparison_entries: Dict[Term, Tuple[Optional[LinAtom], bool, Optional[bool]]] = {}


def prepare_formula(term: Term) -> Term:
    """Pull integer ``ite`` subterms out of comparisons and arithmetic, and
    rewrite integer equalities ``a = b`` into ``a >= b and b >= a``.

    After this pass, every ``ite`` in the formula has boolean branches (it is
    part of the boolean skeleton), every comparison is a purely linear
    inequality, and every ``=`` left is a boolean equivalence.  The rewrite
    is a pure function of interned terms, so each node is prepared once per
    process and later solvers read the result from one table.
    """

    def rw(t: Term) -> Term:
        if t.sort is not BOOL and t.kind is not Kind.ITE and t.args:
            # An arithmetic node: hoist an ite child upward.
            for i, child in enumerate(t.args):
                if child.kind is Kind.ITE:
                    cond, then, els = child.args
                    then_args = t.args[:i] + (then,) + t.args[i + 1 :]
                    else_args = t.args[:i] + (els,) + t.args[i + 1 :]
                    lifted = Term.make(
                        Kind.ITE,
                        (
                            cond,
                            rw(Term.make(t.kind, then_args, t.payload, t.sort)),
                            rw(Term.make(t.kind, else_args, t.payload, t.sort)),
                        ),
                    )
                    return lifted
        if t.sort is BOOL and t.kind in (*_COMPARISON_KINDS, Kind.EQ):
            for i, child in enumerate(t.args):
                if child.sort is INT and child.kind is Kind.ITE:
                    cond, then, els = child.args
                    then_args = t.args[:i] + (then,) + t.args[i + 1 :]
                    else_args = t.args[:i] + (els,) + t.args[i + 1 :]
                    return Term.make(
                        Kind.ITE,
                        (
                            cond,
                            rw(Term.make(t.kind, then_args, t.payload, t.sort)),
                            rw(Term.make(t.kind, else_args, t.payload, t.sort)),
                        ),
                    )
            if t.kind is Kind.EQ and t.args[0].sort is INT:
                a, b = t.args
                return and_(ge(a, b), ge(b, a))
        return t

    return rewrite_bottom_up(term, rw, _prepared)


class CnfEncoder:
    """Encodes formulas into a :class:`SatSolver`, tracking theory atoms."""

    def __init__(self, sat: Optional[SatSolver] = None) -> None:
        self.sat = sat or SatSolver()
        self.atom_vars: Dict[LinAtom, int] = {}
        self.bool_vars: Dict[str, int] = {}
        #: Every term encoded so far -> its SAT literal.  A comparison's is
        #: its atom's variable with the comparison's polarity (the true
        #: literal, or its negation, when it has no variables); a Bool
        #: variable's is its variable.
        self.literals: Dict[Term, int] = {}
        self._true_lit: Optional[int] = None
        self.asserted: list[Term] = []

    def true_lit(self) -> int:
        if self._true_lit is None:
            var = self.sat.new_var()
            self.sat.add_clause([var])
            self._true_lit = var
        return self._true_lit

    def assert_formula(self, formula: Term) -> Term:
        """Normalise, encode, and assert ``formula``; returns the prepared form."""
        prepared = prepare_formula(formula)
        lit = self.encode(prepared)
        self.sat.add_clause([lit])
        self.asserted.append(prepared)
        return prepared

    def prepare_literal(self, formula: Term) -> Tuple[Term, int]:
        """Normalise and encode ``formula`` *without* asserting it.

        Returns ``(prepared form, SAT literal)``.  Used for assumptions: the
        literal can be passed to :meth:`SatSolver.solve` to require the
        formula for one call only.
        """
        prepared = prepare_formula(formula)
        return prepared, self.encode(prepared)

    def atom_literal(self, atom: LinAtom, positive: bool) -> int:
        var = self.atom_vars.get(atom)
        if var is None:
            var = self.sat.new_var()
            self.atom_vars[atom] = var
        return var if positive else -var

    def encode(self, term: Term) -> int:
        """Returns a SAT literal equivalent to the (normalised) formula."""
        hit = self.literals.get(term)
        if hit is not None:
            return hit
        lit = self._encode_uncached(term)
        self.literals[term] = lit
        return lit

    def _encode_uncached(self, term: Term) -> int:
        kind = term.kind
        if kind is Kind.CONST:
            return self.true_lit() if term.payload else -self.true_lit()
        if kind is Kind.VAR:
            name = term.payload
            var = self.bool_vars.get(name)  # type: ignore[arg-type]
            if var is None:
                var = self.sat.new_var()
                self.bool_vars[name] = var  # type: ignore[index]
            return var
        if kind in _COMPARISON_KINDS:
            return self._encode_comparison(term)
        if kind is Kind.NOT:
            return -self.encode(term.args[0])
        if kind is Kind.AND:
            lits = [self.encode(a) for a in term.args]
            out = self.sat.new_var()
            for lit in lits:
                self.sat.add_clause([-out, lit])
            self.sat.add_clause([out] + [-lit for lit in lits])
            return out
        if kind is Kind.OR:
            lits = [self.encode(a) for a in term.args]
            out = self.sat.new_var()
            for lit in lits:
                self.sat.add_clause([out, -lit])
            self.sat.add_clause([-out] + lits)
            return out
        if kind is Kind.IMPLIES:
            a = self.encode(term.args[0])
            b = self.encode(term.args[1])
            out = self.sat.new_var()
            self.sat.add_clause([-out, -a, b])
            self.sat.add_clause([out, a])
            self.sat.add_clause([out, -b])
            return out
        if kind is Kind.EQ:  # boolean equivalence after prepare_formula
            a = self.encode(term.args[0])
            b = self.encode(term.args[1])
            out = self.sat.new_var()
            self.sat.add_clause([-out, -a, b])
            self.sat.add_clause([-out, a, -b])
            self.sat.add_clause([out, a, b])
            self.sat.add_clause([out, -a, -b])
            return out
        if kind is Kind.ITE:
            c = self.encode(term.args[0])
            t = self.encode(term.args[1])
            e = self.encode(term.args[2])
            out = self.sat.new_var()
            self.sat.add_clause([-out, -c, t])
            self.sat.add_clause([-out, c, e])
            self.sat.add_clause([out, -c, -t])
            self.sat.add_clause([out, c, -e])
            return out
        if kind is Kind.APP:
            raise ValueError(
                f"function application {term.payload!r} reached the SMT layer; "
                "inline synthesized/interpreted functions first"
            )
        raise ValueError(f"cannot encode term of kind {kind}: {term!r}")

    def _encode_comparison(self, term: Term) -> int:
        atom, positive, truth = comparison_entry(term)
        if atom is None:
            return self.true_lit() if truth else -self.true_lit()
        return self.atom_literal(atom, positive)


def comparison_entry(term: Term) -> Tuple[Optional[LinAtom], bool, Optional[bool]]:
    """The canonical atom of a prepared comparison, and its polarity.

    Returns ``(atom, positive, None)``, or ``(None, positive, truth)`` when
    the comparison has no variables and is constantly ``truth``.  The entry
    is a pure function of the interned term, so it is computed once per
    process; a nonlinear comparison raises :class:`LinearityError` and
    stores nothing.
    """
    entry = _comparison_entries.get(term)
    if entry is not None:
        return entry
    left, right = term.args
    kind = term.kind
    if kind is Kind.GE:
        diff = _linexpr_diff(left, right, 0)
    elif kind is Kind.GT:
        diff = _linexpr_diff(left, right, -1)
    elif kind is Kind.LE:
        diff = _linexpr_diff(right, left, 0)
    else:  # LT
        diff = _linexpr_diff(right, left, -1)
    atom, positive = canonical_atom(diff)
    if not atom.coeffs:
        # Trivial atom: constant truth value.
        entry = (None, positive, (atom.const >= 0) == positive)
    else:
        entry = (atom, positive, None)
    _comparison_entries[term] = entry
    return entry


def _linexpr_diff(left: Term, right: Term, offset: int):
    return (
        term_to_linexpr(left)
        - term_to_linexpr(right)
        + term_to_linexpr(int_const(offset))
    )
