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

_COMPARISON_KINDS = (Kind.GE, Kind.GT, Kind.LE, Kind.LT)


class ImplicantExtractor:
    """Evaluates a prepared formula under a SAT model and collects atoms."""

    def __init__(self, encoder: CnfEncoder, sat_model: Dict[int, bool]):
        self._encoder = encoder
        self._model = sat_model
        self._truth_cache: Dict[Term, bool] = {}
        #: atom -> required truth value
        self.needed: Dict[LinAtom, bool] = {}

    def truth(self, term: Term) -> bool:
        """Truth value of a subformula under the boolean model."""
        hit = self._truth_cache.get(term)
        if hit is not None:
            return hit
        result = self._truth_uncached(term)
        self._truth_cache[term] = result
        return result

    def _truth_uncached(self, term: Term) -> bool:
        kind = term.kind
        if kind is Kind.CONST:
            return bool(term.payload)
        if kind is Kind.VAR:
            var = self._encoder.bool_vars[term.payload]  # type: ignore[index]
            return self._model[var]
        if kind in _COMPARISON_KINDS:
            atom, positive, trivial = comparison_entry(term)
            if atom is None:
                return bool(trivial)
            return self._model[self._encoder.atom_vars[atom]] == positive
        if kind is Kind.NOT:
            return not self.truth(term.args[0])
        if kind is Kind.AND:
            return all(self.truth(a) for a in term.args)
        if kind is Kind.OR:
            return any(self.truth(a) for a in term.args)
        if kind is Kind.IMPLIES:
            return (not self.truth(term.args[0])) or self.truth(term.args[1])
        if kind is Kind.EQ:
            return self.truth(term.args[0]) == self.truth(term.args[1])
        if kind is Kind.ITE:
            branch = term.args[1] if self.truth(term.args[0]) else term.args[2]
            return self.truth(branch)
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
