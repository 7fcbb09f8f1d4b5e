"""Solving multi-function SyGuS problems.

Strategy (following the paper's remark that the framework extends naturally):

1. If the constraint conjuncts partition cleanly by function, solve each
   single-function projection with the full cooperative synthesizer and
   reassemble (then verify jointly, defensively).
2. Otherwise run the fixed-height search (Algorithm 2) on the whole problem
   for h = 1, 2, ...: its session gives every function its own symbolic
   encoder, so one SMT query per inductive step covers all unknowns of all
   functions, with the single-function search's screen, verify and
   constant widening.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro import obs
from repro.lang.ast import Term
from repro.smt.solver import SolverBudgetExceeded
from repro.sygus.multi import MultiSolution, MultiSygusProblem
from repro.synth.cegis import CegisTimeout, Example
from repro.synth.cooperative import CooperativeSynthesizer
from repro.synth.encoding import EncodingUnsupported
from repro.synth.fixed_height import MAX_HEIGHT, fixed_height
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
        examples: List[Example] = []
        for height in range(1, MAX_HEIGHT + 1):
            stats.heights_tried += 1
            stats.max_height_reached = height
            try:
                bodies = fixed_height(
                    problem, height, examples, deadline, stats, prefix=f"mf{height}"
                )
            except EncodingUnsupported:
                return None
            if bodies is not None:
                return bodies
        return None
