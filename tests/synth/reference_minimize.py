"""The solution minimiser as it was before its counterexample screen.

This is :func:`repro.synth.minimize.minimize_solution` as it stood before
it kept the counterexamples of its failed verifies: every candidate that
passes the size and grammar filters costs one SMT verify.  It walks the
same candidates in the same order and spends ``max_checks`` the same way,
so the two can be run on the same body and their answers and verify counts
compared directly (``tests/synth/test_minimize_reference.py``).  Nothing
in ``src/`` imports it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.lang.ast import Term
from repro.lang.simplify import simplify
from repro.lang.traversal import subexpressions, substitute
from repro.smt.solver import SolverBudgetExceeded
from repro.sygus.problem import SygusProblem
from repro.synth.minimize import _candidate_replacements


def minimize_solution(
    problem: SygusProblem,
    body: Term,
    max_checks: int = 24,
    deadline: Optional[float] = None,
) -> Term:
    """Shrink ``body`` while it keeps verifying against ``problem``."""
    current = simplify(body)
    checks_left = max_checks
    grammar = problem.synth_fun.grammar
    improved = True
    while improved and checks_left > 0:
        improved = False
        # Largest subterms first: replacing them saves the most.
        subs: List[Term] = sorted(
            (s for s in subexpressions(current) if s is not current),
            key=lambda t: -t.size,
        )
        for sub in subs:
            if checks_left <= 0:
                break
            for replacement in _candidate_replacements(sub, problem):
                if replacement.size >= sub.size:
                    continue
                candidate = simplify(substitute(current, {sub: replacement}))
                if candidate.size >= current.size:
                    continue
                if not grammar.generates(candidate):
                    continue
                checks_left -= 1
                try:
                    ok, _ = problem.verify(candidate, deadline)
                except SolverBudgetExceeded:
                    return current
                if ok:
                    current = candidate
                    improved = True
                    break
            if improved:
                break
    return current
