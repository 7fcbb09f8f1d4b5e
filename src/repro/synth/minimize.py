"""Post-hoc solution minimisation.

The paper observes (Table 1 discussion) that DryadSynth's deductive
component "does not control the solution size": merging rules produce
correct but redundant ite towers.  This pass shrinks a verified solution by
attempting size-decreasing, verification-preserving rewrites:

1. collapse ite branches whose condition is decidable relative to nothing
   (handled by ``simplify``);
2. try replacing any subterm with a strictly smaller candidate drawn from
   {0, 1, the parameters, the subterm's own children}; keep a replacement
   iff the whole solution still verifies.

Every accepted rewrite re-verifies against the full specification, so the
result is correct by construction; the budget bounds the number of
candidates checked, and so of SMT calls.

The pass keeps the counterexample of every verify that fails and first
evaluates each candidate on those points
(:meth:`~repro.sygus.problem.SygusProblem.first_violation`).  Most
candidates fail, and most fail on a point an earlier verify already
returned, so a refuted candidate is skipped without an SMT call.  It still
counts against the budget: the screen changes only which candidates need a
proof, never which rewrites are accepted, so the answer is the one the
unscreened pass gives.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.lang.ast import Kind, Term
from repro.lang.builders import int_const
from repro.lang.evaluator import Value
from repro.lang.simplify import simplify
from repro.lang.sorts import INT
from repro.lang.traversal import subexpressions, substitute
from repro.sygus.problem import SygusProblem


def _candidate_replacements(sub: Term, problem: SygusProblem) -> Iterator[Term]:
    """Strictly smaller terms that could replace ``sub``."""
    if sub.sort is INT:
        if sub.kind is not Kind.CONST:
            yield int_const(0)
        for param in problem.synth_fun.params:
            if param.sort is INT and param is not sub and param.size < sub.size:
                yield param
    if sub.kind is Kind.ITE:
        yield sub.args[1]
        yield sub.args[2]
    elif len(sub.args) == 2 and sub.kind in (Kind.ADD, Kind.SUB):
        for child in sub.args:
            if child.sort is sub.sort:
                yield child


def minimize_solution(
    problem: SygusProblem,
    body: Term,
    max_checks: int = 24,
    deadline: Optional[float] = None,
) -> Term:
    """Shrink ``body`` while it keeps verifying against ``problem``.

    Returns a body that verifies (the input is assumed to verify); when the
    budget runs out the best-so-far is returned.
    """
    from repro.smt.solver import SolverBudgetExceeded

    current = simplify(body)
    checks_left = max_checks
    grammar = problem.synth_fun.grammar
    # Counterexamples of the failed verifies, to screen later candidates.
    refuting: List[Dict[str, Value]] = []
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
                if problem.first_violation(candidate, refuting) is not None:
                    continue
                try:
                    ok, counterexample = problem.verify(candidate, deadline)
                except SolverBudgetExceeded:
                    return current
                if ok:
                    current = candidate
                    improved = True
                    break
                refuting.append(counterexample)
            if improved:
                break
    return current
