"""A LoopInvGen-style data-driven invariant inference baseline.

Reimplements the PIE/LoopInvGen architecture (Padhi & Millstein): the solver
learns the invariant as a boolean function over a pool of *candidate
features* (octagonal atoms ``+-x +-y <= c`` with constants harvested from the
specification), trained on labelled program states:

- positive states: reachable from the precondition (sampled by executing the
  transition relation);
- negative states: states violating the postcondition;
- implication pairs from failed inductiveness checks, resolved into labels
  CEGIS-style.

Like the original, it participates only in the INV track.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lang.ast import Kind, Term
from repro.lang.builders import add, and_, ge, int_const, le, not_, or_, sub
from repro.lang.evaluator import EvaluationError, Value, evaluate
from repro.lang.simplify import simplify
from repro.lang.sorts import BOOL
from repro.lang.traversal import subexpressions
from repro.smt.solver import SolverBudgetExceeded
from repro.sygus.problem import InvariantProblem, Solution, SygusProblem
from repro.synth.cegis import CegisTimeout
from repro.synth.result import SynthesisOutcome, SynthesisStats

State = Tuple[int, ...]

#: Learn/check rounds before the search gives up.
MAX_ROUNDS = 60

#: Most transition steps one unrolling of the loop follows.
MAX_UNROLL = 300


class LoopInvGenSolver:
    """Data-driven invariant inference over octagonal features."""

    name = "loopinvgen"

    def __init__(self, timeout: Optional[float] = None) -> None:
        self.timeout = timeout

    def synthesize(self, problem: SygusProblem) -> SynthesisOutcome:
        stats = SynthesisStats()
        start = time.monotonic()
        deadline = start + self.timeout if self.timeout is not None else None
        invariant = problem.invariant
        if problem.track != "INV" or invariant is None:
            return SynthesisOutcome(None, stats)
        try:
            body = self._infer(problem, invariant, deadline, stats)
        except (CegisTimeout, SolverBudgetExceeded):
            return SynthesisOutcome(None, stats, timed_out=True)
        if body is None:
            return SynthesisOutcome(None, stats)
        elapsed = time.monotonic() - start
        return SynthesisOutcome(Solution(problem, body, self.name, elapsed), stats)

    # -- Main loop ---------------------------------------------------------------------

    def _infer(
        self,
        problem: SygusProblem,
        invariant: InvariantProblem,
        deadline: Optional[float],
        stats: SynthesisStats,
    ) -> Optional[Term]:
        variables = [v.payload for v in invariant.variables]
        features = self._features(invariant)
        positives: Set[State] = set()
        negatives: Set[State] = set()
        # Seed the positive pool by sampling an initial state from the
        # precondition and executing the loop from it.
        seed = self._sample_pre(invariant, variables)
        if seed is not None:
            positives.update(self._unroll(invariant, seed))
        for _ in range(MAX_ROUNDS):
            if deadline is not None and time.monotonic() > deadline:
                raise CegisTimeout("loopinvgen deadline exceeded")
            stats.cegis_iterations += 1
            candidate = self._learn(features, variables, positives, negatives)
            if candidate is None:
                return None
            ok, counterexample = problem.verify(candidate, deadline)
            if ok:
                return candidate
            assert counterexample is not None
            self._absorb_counterexample(
                invariant, candidate, counterexample, positives, negatives
            )
        return None

    def _absorb_counterexample(
        self,
        invariant: InvariantProblem,
        candidate: Term,
        counterexample: Dict[str, Value],
        positives: Set[State],
        negatives: Set[State],
    ) -> None:
        """Label the counterexample state(s) by which condition failed."""
        variables = [v.payload for v in invariant.variables]
        state = tuple(int(counterexample.get(name, 0)) for name in variables)
        env = dict(zip(variables, state))
        primed_state = tuple(
            int(counterexample.get(name + "!", 0)) for name in variables
        )
        pre_holds = bool(evaluate(invariant.pre, env))
        post_holds = bool(evaluate(invariant.post, env))
        inv_holds = self._holds(candidate, invariant, state)
        if pre_holds and not inv_holds:
            positives.add(state)
            positives.update(self._unroll(invariant, state))
            return
        if inv_holds and not post_holds:
            negatives.add(state)
            return
        # Inductiveness failure: inv(s) and trans(s, s') but not inv(s').
        if state in positives or self._reachable(invariant, primed_state, positives):
            positives.add(primed_state)
        else:
            negatives.add(state)

    def _reachable(
        self, invariant: InvariantProblem, state: State, positives: Set[State]
    ) -> bool:
        return state in positives

    def _holds(
        self, candidate: Term, invariant: InvariantProblem, state: State
    ) -> bool:
        env = {v.payload: value for v, value in zip(invariant.variables, state)}
        try:
            return bool(evaluate(candidate, env))
        except EvaluationError:
            return False

    # -- Sampling ----------------------------------------------------------------------

    def _sample_pre(
        self, invariant: InvariantProblem, variables: Sequence[str]
    ) -> Optional[State]:
        from repro.smt import check_sat

        result = check_sat(invariant.pre)
        if not result.is_sat or result.model is None:
            return None
        return tuple(int(result.model.get(name, 0)) for name in variables)

    def _unroll(self, invariant: InvariantProblem, initial: State) -> List[State]:
        """Execute the loop from ``initial`` to harvest reachable states.

        Works when the transition relation is a conjunction of functional
        updates ``x' = t(x)`` (the common INV-track shape); otherwise returns
        just the initial state.
        """
        updates = self._functional_updates(invariant)
        if updates is None:
            return [initial]
        variables = [v.payload for v in invariant.variables]
        states = [initial]
        current = initial
        for _ in range(MAX_UNROLL):
            env = dict(zip(variables, current))
            try:
                succ = tuple(
                    int(evaluate(updates[name], env)) for name in variables
                )
            except EvaluationError:
                break
            if succ == current:
                break
            states.append(succ)
            current = succ
        return states

    def _functional_updates(
        self, invariant: InvariantProblem
    ) -> Optional[Dict[str, Term]]:
        primed = {invariant.primed(v): v for v in invariant.variables}
        updates: Dict[str, Term] = {}
        conjuncts = (
            list(invariant.trans.args)
            if invariant.trans.kind is Kind.AND
            else [invariant.trans]
        )
        for conjunct in conjuncts:
            if conjunct.kind is not Kind.EQ:
                return None
            left, right = conjunct.args
            if left in primed:
                updates[primed[left].payload] = right
            elif right in primed:
                updates[primed[right].payload] = left
            else:
                return None
        if set(updates) != {v.payload for v in invariant.variables}:
            return None
        return updates

    # -- Feature synthesis ---------------------------------------------------------------

    def _features(self, invariant: InvariantProblem) -> List[Term]:
        """Octagonal feature pool with spec-harvested constants."""
        constants: Set[int] = {0, 1}
        for formula in (invariant.pre, invariant.trans, invariant.post):
            for sub_term in subexpressions(formula):
                if sub_term.kind is Kind.CONST and isinstance(sub_term.payload, int):
                    constants.add(sub_term.payload)
                    constants.add(sub_term.payload - 1)
                    constants.add(sub_term.payload + 1)
        features: List[Term] = []
        variables = list(invariant.variables)
        for v in variables:
            for c in sorted(constants):
                features.append(ge(v, c))
                features.append(le(v, c))
        for v1, v2 in itertools.combinations(variables, 2):
            features.append(ge(v1, v2))
            features.append(le(v1, v2))
            for c in sorted(constants):
                if c != 0:
                    features.append(ge(add(v1, v2), c))
                    features.append(le(add(v1, v2), c))
                    features.append(ge(sub(v1, v2), c))
                    features.append(le(sub(v1, v2), c))
        return features

    # -- Learning -------------------------------------------------------------------------

    def _learn(
        self,
        features: Sequence[Term],
        variables: Sequence[str],
        positives: Set[State],
        negatives: Set[State],
    ) -> Optional[Term]:
        """Greedy CNF learning: conjoin clauses until all negatives die.

        Every clause must hold on all positive states; each clause is a
        disjunction of at most two features chosen greedily to eliminate the
        most remaining negatives (a simplified PIE boolean learner).
        """
        if not negatives:
            return simplify(and_())  # `true` until a negative shows up
        feature_values: List[Tuple[Term, Dict[State, bool]]] = []
        for feature in features:
            values: Dict[State, bool] = {}
            usable = True
            for state in itertools.chain(positives, negatives):
                env = dict(zip(variables, state))
                try:
                    values[state] = bool(evaluate(feature, env))
                except EvaluationError:
                    usable = False
                    break
            if usable:
                feature_values.append((feature, values))
        remaining = set(negatives)
        clauses: List[Term] = []
        for _ in range(8):
            if not remaining:
                break
            best = None
            best_killed: FrozenSet[State] = frozenset()
            candidates = self._clause_candidates(feature_values, positives)
            for clause, values in candidates:
                killed = frozenset(s for s in remaining if not values[s])
                if len(killed) > len(best_killed):
                    best = clause
                    best_killed = killed
            if best is None or not best_killed:
                return None
            clauses.append(best)
            remaining -= best_killed
        if remaining:
            return None
        return simplify(and_(*clauses))

    def _clause_candidates(
        self,
        feature_values: List[Tuple[Term, Dict[State, bool]]],
        positives: Set[State],
    ):
        """Clauses (single features or 2-feature disjunctions) true on all
        positives."""
        singles = []
        for feature, values in feature_values:
            if all(values[s] for s in positives):
                yield feature, values
            else:
                singles.append((feature, values))
        for (f1, v1), (f2, v2) in itertools.combinations(singles, 2):
            merged = {s: v1[s] or v2[s] for s in v1}
            if all(merged[s] for s in positives):
                yield or_(f1, f2), merged
