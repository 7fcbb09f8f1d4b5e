"""Independent answer check: a returned body is evaluated, never re-solved.

The synthesizer verifies its own answers with the SMT stack that produced
them, so that verification cannot catch an SMT bug.  This check uses only
the tree-walking evaluator (:func:`repro.lang.evaluator.evaluate`, not the
compiled evaluator of :mod:`repro.lang.compile` and not the solver): the
problem's specification must hold on

- the full grid ``[-4, 4]^n`` when the problem has at most three Int
  variables, and
- ``RANDOM_POINTS`` points drawn from ``[-200, 200]`` by a generator seeded
  with the problem name, so every run checks the same points.

For an invariant problem the primed (post-state) variables are not drawn:
they are computed from the transition relation, so the inductiveness
clause is exercised on real steps rather than holding vacuously.

A second, separate verdict says whether the problem's grammar derives the
body (:meth:`repro.sygus.grammar.Grammar.generates`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.lang.ast import Kind, Term
from repro.lang.evaluator import EvaluationError, evaluate
from repro.lang.sorts import BOOL
from repro.lang.traversal import free_vars

GRID = range(-4, 5)
GRID_MAX_VARS = 3
RANDOM_POINTS = 300
RANDOM_RANGE = 200


@dataclass(frozen=True)
class Verdict:
    correct: bool
    in_grammar: bool
    detail: str = ""


def _is_primed(term: Term) -> bool:
    return term.kind is Kind.VAR and str(term.payload).endswith("!")


def _updates(problem) -> Dict[str, Term]:
    """Primed variable -> update term, for ``(= x! e)`` transition conjuncts."""
    invariant = problem.invariant
    if invariant is None:
        return {}
    trans = invariant.trans
    conjuncts = trans.args if trans.kind is Kind.AND else (trans,)
    updates: Dict[str, Term] = {}
    for conjunct in conjuncts:
        if conjunct.kind is not Kind.EQ:
            continue
        for target, update in (conjunct.args, conjunct.args[::-1]):
            if _is_primed(target) and not any(
                _is_primed(v) for v in free_vars(update)
            ):
                updates[target.payload] = update
                break
    return updates


def _points(problem) -> List[Dict[str, object]]:
    updates = _updates(problem)
    base = [v for v in problem.variables if v.payload not in updates]
    rng = random.Random(problem.name)
    envs: List[Dict[str, object]] = []
    if len(base) <= GRID_MAX_VARS and all(v.sort is not BOOL for v in base):
        for values in itertools.product(GRID, repeat=len(base)):
            envs.append({v.payload: value for v, value in zip(base, values)})
    for _ in range(RANDOM_POINTS):
        envs.append({
            v.payload: (
                rng.random() < 0.5 if v.sort is BOOL
                else rng.randint(-RANDOM_RANGE, RANDOM_RANGE)
            )
            for v in base
        })
    for env in envs:
        for name, update in updates.items():
            env[name] = evaluate(update, env)
    return envs


def check_answer(problem, body: Term) -> Verdict:
    """Check ``body`` against ``problem`` by evaluation and grammar membership."""
    in_grammar = problem.synth_fun.grammar.generates(body)
    funcs = dict(problem.interpreted_defs())
    funcs[problem.fun_name] = (problem.synth_fun.params, body)
    for env in _points(problem):
        try:
            holds = evaluate(problem.spec, env, funcs)
        except EvaluationError as exc:
            return Verdict(False, in_grammar, f"evaluation failed: {exc}")
        if not holds:
            return Verdict(False, in_grammar, f"spec violated at {env}")
    return Verdict(True, in_grammar)


class AnswerChecker:
    """Checks define-fun answers for a fixed set of problems, once per answer.

    Answers are deterministic, so a pass that returns the text an earlier
    pass returned reuses that verdict.
    """

    def __init__(self, problems: Dict[str, object]) -> None:
        self.problems = problems
        self._verdicts: Dict[tuple, Verdict] = {}

    def check(self, name: str, solution_text: Optional[str]) -> Verdict:
        key = (name, solution_text)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = self._check(name, solution_text)
        return verdict

    def _check(self, name: str, solution_text: Optional[str]) -> Verdict:
        from repro.service.jobs import parse_solution_text

        problem = self.problems[name]
        if not solution_text:
            return Verdict(False, False, "no solution text")
        try:
            body = parse_solution_text(problem, solution_text)
        except Exception as exc:  # noqa: BLE001 - any unreadable answer is wrong
            return Verdict(False, False, f"unparseable answer: {exc}")
        return check_answer(problem, body)
