"""Solving multi-function SyGuS problems.

Strategy (following the paper's remark that the framework extends naturally):

1. If the constraint conjuncts partition cleanly by function, solve each
   single-function projection with the full cooperative synthesizer and
   reassemble (then verify jointly, defensively).
2. Otherwise run a *joint* fixed-height CEGIS: every function gets its own
   symbolic encoder; one SMT query per inductive step covers all unknowns of
   all functions simultaneously, heights increasing in lockstep.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro import obs
from repro.lang.ast import Kind, Term
from repro.lang.builders import and_, bool_const, int_const
from repro.lang.evaluator import EvaluationError, evaluate
from repro.lang.traversal import rewrite_bottom_up
from repro.smt.solver import SmtSolver, SolverBudgetExceeded, Status
from repro.sygus.multi import MultiSolution, MultiSygusProblem
from repro.synth.cegis import MAX_CEGIS_ROUNDS, CegisTimeout
from repro.synth.examples import ExampleSet
from repro.synth.cooperative import CooperativeSynthesizer
from repro.synth.encoding import EncodingUnsupported
from repro.synth.fixed_height import (
    COEFF_BOUND,
    CONST_BOUNDS,
    MAX_HEIGHT,
    make_encoder,
)
from repro.synth.result import SynthesisOutcome, SynthesisStats


class MultiFunctionSynthesizer:
    """Cooperative synthesis lifted to several functions."""

    name = "dryadsynth-multi"

    def __init__(self, timeout: Optional[float] = None):
        self.timeout = timeout

    def synthesize(self, problem: MultiSygusProblem) -> SynthesisOutcome:
        with obs.span("synth", problem=problem.name, solver=self.name):
            outcome = self._synthesize_impl(problem)
        if obs.enabled():
            obs.publish_stats(outcome.stats)
        return outcome

    def _synthesize_impl(self, problem: MultiSygusProblem) -> SynthesisOutcome:
        stats = SynthesisStats()
        start = time.monotonic()
        deadline = start + self.timeout if self.timeout is not None else None
        try:
            bodies = self._try_independent(problem, deadline, stats)
            if bodies is None:
                bodies = self._joint_cegis(problem, deadline, stats)
        except (CegisTimeout, SolverBudgetExceeded):
            return SynthesisOutcome(None, stats, timed_out=True)
        if bodies is None:
            timed_out = deadline is not None and time.monotonic() > deadline
            return SynthesisOutcome(None, stats, timed_out=timed_out)
        elapsed = time.monotonic() - start
        solution = MultiSolution(problem, bodies, self.name, elapsed)
        return SynthesisOutcome(solution, stats)

    # -- Route 1: independent decomposition ---------------------------------------

    def _try_independent(
        self,
        problem: MultiSygusProblem,
        deadline: Optional[float],
        stats: SynthesisStats,
    ) -> Optional[Dict[str, Term]]:
        projections = problem.split_independent()
        if projections is None:
            return None
        bodies: Dict[str, Term] = {}
        for projection in projections:
            remaining = None
            if deadline is not None:
                remaining = max(deadline - time.monotonic(), 0.5)
            outcome = CooperativeSynthesizer(remaining).synthesize(projection)
            stats.merge(outcome.stats)
            if outcome.solution is None:
                return None
            bodies[projection.fun_name] = outcome.solution.body
        ok, _ = problem.verify(bodies, deadline)
        return bodies if ok else None

    # -- Route 2: joint fixed-height CEGIS --------------------------------------------

    def _joint_cegis(
        self,
        problem: MultiSygusProblem,
        deadline: Optional[float],
        stats: SynthesisStats,
    ) -> Optional[Dict[str, Term]]:
        examples = ExampleSet()
        for height in range(1, MAX_HEIGHT + 1):
            stats.heights_tried += 1
            bodies = self._joint_fixed_height(
                problem, height, examples, deadline, stats
            )
            if bodies is not None:
                return bodies
        return None

    def _joint_fixed_height(
        self,
        problem: MultiSygusProblem,
        height: int,
        examples: List[Dict],
        deadline: Optional[float],
        stats: SynthesisStats,
    ) -> Optional[Dict[str, Term]]:
        from repro.sygus.problem import SygusProblem

        encoders = {}
        for index, fun in enumerate(problem.synth_funs):
            single = SygusProblem(
                fun, problem.spec, problem.variables, name=fun.name
            )
            try:
                encoders[fun.name] = make_encoder(
                    single, height, f"mf{height}!{index}"
                )
            except EncodingUnsupported:
                return None
        from repro.lang.traversal import subexpressions

        largest_const = 1
        for sub_term in subexpressions(problem.spec):
            if sub_term.kind is Kind.CONST and isinstance(sub_term.payload, int):
                largest_const = max(largest_const, abs(sub_term.payload))
        const_bound = min(
            (b for b in CONST_BOUNDS if b >= largest_const),
            default=CONST_BOUNDS[-1],
        )
        solver = SmtSolver(deadline=deadline)
        for fun in problem.synth_funs:
            solver.add(
                encoders[fun.name].static_constraints(COEFF_BOUND, const_bound)
            )
        for example in examples:
            solver.add(self._example_query(problem, encoders, example))
        candidates = {
            fun.name: encoders[fun.name].initial_candidate()
            for fun in problem.synth_funs
        }
        for _ in range(MAX_CEGIS_ROUNDS):
            if deadline is not None and time.monotonic() > deadline:
                raise CegisTimeout("joint CEGIS deadline exceeded")
            ok, counterexample = problem.verify(candidates, deadline)
            if ok:
                return dict(candidates)
            assert counterexample is not None
            if examples.add(counterexample):
                solver.add(
                    self._example_query(problem, encoders, counterexample)
                )
            stats.smt_checks += 1
            result = solver.solve()
            if result.status is not Status.SAT:
                return None
            assert result.model is not None
            candidates = {
                fun.name: encoders[fun.name].decode(result.model, fun.params)
                for fun in problem.synth_funs
            }
            stats.cegis_iterations += 1
        return None

    def _example_query(
        self,
        problem: MultiSygusProblem,
        encoders: Dict[str, object],
        example: Dict,
    ) -> Term:
        """Spec on a concrete example with every app symbolically encoded."""
        side_constraints: List[Term] = []
        by_name = {fun.name: fun for fun in problem.synth_funs}

        def rewrite(t: Term) -> Term:
            if t.kind is Kind.VAR and t.payload in example:
                value = example[t.payload]
                if t.sort.name == "Int":
                    return int_const(int(value))
                return bool_const(bool(value))
            if t.kind is Kind.APP and t.payload in by_name:
                arg_values = []
                for arg in t.args:
                    try:
                        arg_values.append(int(evaluate(arg, {})))
                    except EvaluationError as exc:
                        raise EncodingUnsupported(
                            "nested synthesized calls are unsupported"
                        ) from exc
                value, side = encoders[t.payload].app_instance(arg_values)
                if side.kind is not Kind.CONST or not side.payload:
                    side_constraints.append(side)
                return value
            return t

        instantiated = rewrite_bottom_up(problem.spec, rewrite)
        return and_(instantiated, *side_constraints)
