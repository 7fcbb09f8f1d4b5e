"""A CVC4-style deductive baseline: counterexample-guided quantifier
instantiation for single-invocation problems (Reynolds et al., CAV 2015).

For a single-invocation specification ``Phi(f(x), x)`` the solver treats the
function's output as a first-order variable ``r`` and searches for a witness
term for ``exists r . Psi(r, x)``.  Witness candidates are harvested from the
terms the specification itself compares against ``r`` (plus small offsets),
and the synthesized solution is the ite-cascade

    ite(Psi[t1/r], t1, ite(Psi[t2/r], t2, ... tn))

— which is why this family is extremely fast on CLIA-track problems but
produces the largest solutions in the paper's Table 1.  On problems that are
not single-invocation (e.g. the INV track's ``inv(x)``/``inv(x')``) or whose
grammar is not full CLIA, it falls back to a size-capped enumerative search,
mirroring CVC4's weaker enumerative mode outside its sweet spot.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Set

from repro.lang.ast import Kind, Term
from repro.lang.builders import add, and_, int_const, int_var, ite, or_, sub
from repro.lang.simplify import simplify
from repro.lang.sorts import INT
from repro.lang.traversal import (
    contains_app,
    free_vars,
    subexpressions,
    substitute,
)
from repro.smt.solver import SolverBudgetExceeded
from repro.sygus.problem import Solution, SygusProblem
from repro.synth.cegis import MAX_CEGIS_ROUNDS, CegisTimeout
from repro.synth.encoding import grammar_is_full_clia
from repro.synth.result import SynthesisOutcome, SynthesisStats

#: Size cap of the enumerative fallback (CVC4's weaker mode).
FALLBACK_MAX_SIZE = 5


class CegqiSolver:
    """Single-invocation CEGQI with enumerative fallback."""

    name = "cegqi"

    def __init__(self, timeout: Optional[float] = None) -> None:
        self.timeout = timeout

    def synthesize(self, problem: SygusProblem) -> SynthesisOutcome:
        stats = SynthesisStats()
        start = time.monotonic()
        deadline = start + self.timeout if self.timeout is not None else None
        body: Optional[Term] = None
        timed_out = False
        try:
            if self._applicable(problem):
                body = self._cegqi(problem, deadline, stats)
            if body is None:
                body = self._fallback(problem, deadline, stats)
        except (CegisTimeout, SolverBudgetExceeded):
            timed_out = True
        if body is None:
            return SynthesisOutcome(None, stats, timed_out=timed_out)
        elapsed = time.monotonic() - start
        return SynthesisOutcome(Solution(problem, body, self.name, elapsed), stats)

    # -- Applicability --------------------------------------------------------------

    def _applicable(self, problem: SygusProblem) -> bool:
        if problem.synth_fun.return_sort is not INT:
            return False
        if not grammar_is_full_clia(problem.synth_fun.grammar):
            return False
        invocations = problem.invocations()
        if not invocations:
            return False
        if not problem.is_single_invocation():
            return False
        args = invocations[0].args
        return all(a.kind is Kind.VAR for a in args) and len(set(args)) == len(args)

    # -- The CEGQI loop ----------------------------------------------------------------

    def _cegqi(
        self,
        problem: SygusProblem,
        deadline: Optional[float],
        stats: SynthesisStats,
    ) -> Optional[Term]:
        invocation = problem.invocations()[0]
        return_var = int_var(f"r!{problem.fun_name}")
        psi = substitute(problem.spec, {invocation: return_var})
        witnesses = self._witness_terms(psi, return_var, problem)
        # Build the ite cascade over harvested witnesses, largest cascade
        # first pruned by which witnesses are ever needed (CEGIS-style).
        needed: List[Term] = []
        examples: List[dict] = []
        for _ in range(MAX_CEGIS_ROUNDS):
            if deadline is not None and time.monotonic() > deadline:
                raise CegisTimeout("cegqi deadline exceeded")
            candidate = self._cascade(psi, return_var, needed, invocation, problem)
            stats.cegis_iterations += 1
            ok, counterexample = problem.verify(candidate, deadline)
            if ok:
                return self._rename_to_params(candidate, invocation, problem)
            assert counterexample is not None
            examples.append(counterexample)
            # Instantiate: find a witness that works on the counterexample.
            witness = self._find_witness(
                psi, return_var, witnesses, counterexample, problem
            )
            if witness is None:
                return None
            if witness in needed:
                return None  # no progress: the cascade logic cannot improve
            needed.append(witness)
        return None

    def _witness_terms(
        self, psi: Term, return_var: Term, problem: SygusProblem
    ) -> List[Term]:
        """Terms compared against the return variable, with +-1 offsets."""
        harvested: List[Term] = []
        seen: Set[Term] = set()

        def register(term: Term) -> None:
            for variant in (term, simplify(add(term, 1)), simplify(sub(term, 1))):
                if variant not in seen:
                    seen.add(variant)
                    harvested.append(variant)

        for sub_term in subexpressions(psi):
            if sub_term.kind in (Kind.GE, Kind.GT, Kind.LE, Kind.LT, Kind.EQ):
                left, right = sub_term.args
                if left is return_var and return_var not in free_vars(right):
                    register(right)
                elif right is return_var and return_var not in free_vars(left):
                    register(left)
        register(int_const(0))
        return harvested

    def _cascade(
        self,
        psi: Term,
        return_var: Term,
        needed: Sequence[Term],
        invocation: Term,
        problem: SygusProblem,
    ) -> Term:
        if not needed:
            return int_const(0)
        result = needed[-1]
        for witness in reversed(needed[:-1]):
            condition = simplify(substitute(psi, {return_var: witness}))
            result = ite(condition, witness, result)
        return simplify(result)

    def _find_witness(
        self,
        psi: Term,
        return_var: Term,
        witnesses: Sequence[Term],
        example: dict,
        problem: SygusProblem,
    ) -> Optional[Term]:
        from repro.lang.evaluator import EvaluationError, evaluate

        for witness in witnesses:
            try:
                value = evaluate(
                    substitute(psi, {return_var: witness}), example
                )
            except EvaluationError:
                continue
            if value:
                return witness
        return None

    def _rename_to_params(
        self, body: Term, invocation: Term, problem: SygusProblem
    ) -> Term:
        renaming = dict(zip(invocation.args, problem.synth_fun.params))
        return substitute(body, renaming)

    # -- Fallback ------------------------------------------------------------------------

    def _fallback(
        self,
        problem: SygusProblem,
        deadline: Optional[float],
        stats: SynthesisStats,
    ) -> Optional[Term]:
        """A size-capped enumerative search (CVC4's non-CEGQI mode)."""
        from repro.baselines.eusolver import EnumerativeSolver

        remaining = None
        if deadline is not None:
            remaining = max(deadline - time.monotonic(), 0.1)
        solver = EnumerativeSolver(remaining, max_size=FALLBACK_MAX_SIZE)
        outcome = solver.synthesize(problem)
        stats.cegis_iterations += outcome.stats.cegis_iterations
        if outcome.timed_out:
            raise CegisTimeout("cegqi fallback timed out")
        return outcome.solution.body if outcome.solution else None
