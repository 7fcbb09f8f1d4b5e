"""Implicant extraction from a boolean model.

Given a SAT model of a formula's boolean skeleton, compute a *small* set of
theory atoms (with polarities) that already forces the formula true.  Only
those atoms need to be checked for integer feasibility, and — on theory
conflict — the blocking lemma built from them is far more general than one
built from the full assignment.  This is the standard "don't send the whole
boolean model to the theory solver" optimisation of lazy SMT.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.lang.ast import Kind, Term
from repro.smt.linear import LinAtom
from repro.smt.tseitin import CnfEncoder, comparison_entry

_COMPARISON_KINDS = frozenset((Kind.GE, Kind.GT, Kind.LE, Kind.LT))
_LEAF_KINDS = _COMPARISON_KINDS | {Kind.VAR}


class ImplicantExtractor:
    """Evaluates a prepared formula under a SAT model and collects atoms.

    Leaves read their value off the literal the encoder gave them.  A
    connective is evaluated from its children, never read off its own
    Tseitin literal, so the assertion in :func:`extract_implicant` that the
    model satisfies every formula also checks the connectives' clauses.
    """

    def __init__(self, encoder: CnfEncoder, sat_model: Dict[int, bool]):
        self._literals = encoder.literals
        self._model = sat_model
        self._truth_cache: Dict[Term, bool] = {}
        #: atom -> required truth value
        self.needed: Dict[LinAtom, bool] = {}

    def truth(self, term: Term) -> bool:
        """Truth value of a subformula under the boolean model."""
        kind = term.kind
        if kind in _LEAF_KINDS:
            # A leaf reads the literal the encoder gave it: the atom's or
            # Bool variable's SAT variable with the comparison's polarity, or
            # the always-true literal (negated when false) for a comparison
            # without variables, so the value is the leaf's own.
            lit = self._literals[term]
            return self._model[lit] if lit > 0 else not self._model[-lit]
        hit = self._truth_cache.get(term)
        if hit is None:
            hit = self._truth_cache[term] = self._truth_uncached(term, kind)
        return hit

    def _truth_uncached(self, term: Term, kind: Kind) -> bool:
        truth = self.truth
        if kind is Kind.AND:
            for arg in term.args:
                if not truth(arg):
                    return False
            return True
        if kind is Kind.OR:
            for arg in term.args:
                if truth(arg):
                    return True
            return False
        if kind is Kind.NOT:
            return not truth(term.args[0])
        if kind is Kind.CONST:
            return bool(term.payload)
        if kind is Kind.IMPLIES:
            return (not truth(term.args[0])) or truth(term.args[1])
        if kind is Kind.EQ:
            return truth(term.args[0]) == truth(term.args[1])
        if kind is Kind.ITE:
            return truth(term.args[1] if truth(term.args[0]) else term.args[2])
        raise ValueError(f"cannot evaluate kind {kind}")

    def collect(self, term: Term, desired: bool) -> None:
        """Record atoms forcing ``term`` to evaluate to ``desired``."""
        kind = term.kind
        if kind is Kind.CONST:
            return
        if kind is Kind.VAR:
            return  # boolean variables do not constrain the theory
        if kind in _COMPARISON_KINDS:
            atom, positive, trivial = comparison_entry(term)
            if atom is None:
                return
            self.needed[atom] = positive == desired
            return
        if kind is Kind.NOT:
            self.collect(term.args[0], not desired)
            return
        if kind is Kind.AND:
            if desired:
                for a in term.args:
                    self.collect(a, True)
            else:
                for a in term.args:
                    if not self.truth(a):
                        self.collect(a, False)
                        return
                raise AssertionError("false AND without a false child")
            return
        if kind is Kind.OR:
            if desired:
                for a in term.args:
                    if self.truth(a):
                        self.collect(a, True)
                        return
                raise AssertionError("true OR without a true child")
            for a in term.args:
                self.collect(a, False)
            return
        if kind is Kind.IMPLIES:
            ante, cons = term.args
            if desired:
                if not self.truth(ante):
                    self.collect(ante, False)
                else:
                    self.collect(cons, True)
            else:
                self.collect(ante, True)
                self.collect(cons, False)
            return
        if kind is Kind.EQ:
            # Boolean equivalence: pin both sides at their actual values.
            self.collect(term.args[0], self.truth(term.args[0]))
            self.collect(term.args[1], self.truth(term.args[1]))
            return
        if kind is Kind.ITE:
            cond, then, els = term.args
            cond_value = self.truth(cond)
            self.collect(cond, cond_value)
            self.collect(then if cond_value else els, desired)
            return
        raise ValueError(f"cannot collect from kind {kind}")


def extract_implicant(
    encoder: CnfEncoder,
    sat_model: Dict[int, bool],
    extra: Sequence[Term] = (),
) -> Dict[LinAtom, bool]:
    """Atoms (with polarity) sufficient to satisfy everything asserted.

    ``extra`` holds additional prepared formulas the model must satisfy —
    the assumptions of the current ``solve`` call, whose atoms must reach
    the theory solver just like those of the permanent assertions.
    """
    extractor = ImplicantExtractor(encoder, sat_model)
    for formula in encoder.asserted:
        assert extractor.truth(formula), "SAT model does not satisfy the skeleton"
        extractor.collect(formula, True)
    for formula in extra:
        assert extractor.truth(formula), "SAT model does not satisfy an assumption"
        extractor.collect(formula, True)
    return extractor.needed
