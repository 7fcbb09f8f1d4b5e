"""Sequential solver portfolios and the virtual best solver.

SyGuS-Comp reports (which the paper's evaluation follows) often quote the
*virtual best solver* — the per-benchmark best of all entrants — as the
ceiling a portfolio could reach.  This module provides both:

- :class:`SequentialPortfolio`: run several solvers on one problem under a
  shared budget, first solution wins (a practical meta-solver: deduction-
  heavy DryadSynth first, enumeration-heavy baselines as fallback);
- :class:`ProcessPortfolio`: the same members raced concurrently on OS
  processes via :mod:`repro.service` — each member gets the *full* budget
  instead of a slice, the first solver to finish wins and the losers are
  terminated;
- :func:`virtual_best`: the VBS over a campaign's :class:`RunResult` list.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sygus.problem import SygusProblem
from repro.synth.result import SynthesisOutcome, SynthesisStats


class SequentialPortfolio:
    """Run solver factories in order, splitting the wall-clock budget.

    ``members`` maps a display name to a factory ``(timeout) -> solver``;
    each member receives ``weight / total_weight`` of the remaining budget
    (the last member gets whatever is left).
    """

    name = "portfolio"

    def __init__(
        self,
        members: Sequence[Tuple[str, object, float]],
        timeout: Optional[float] = None,
    ) -> None:
        if not members:
            raise ValueError("a portfolio needs at least one member")
        self.members = list(members)
        self.timeout = timeout

    @staticmethod
    def default(timeout: Optional[float] = None) -> "SequentialPortfolio":
        """The natural CLIA portfolio: cooperative first, baselines after."""
        from repro.baselines import CegqiSolver, EnumerativeSolver, LoopInvGenSolver
        from repro.synth.cooperative import CooperativeSynthesizer

        return SequentialPortfolio(
            [
                ("dryadsynth", CooperativeSynthesizer, 0.6),
                ("cegqi", CegqiSolver, 0.15),
                ("eusolver", EnumerativeSolver, 0.15),
                ("loopinvgen", LoopInvGenSolver, 0.1),
            ],
            timeout,
        )

    def synthesize(self, problem: SygusProblem) -> SynthesisOutcome:
        total_weight = sum(weight for _, _, weight in self.members)
        stats = SynthesisStats()
        start = time.monotonic()
        budget = self.timeout
        timed_out = False
        for index, (name, factory, weight) in enumerate(self.members):
            if budget is not None:
                elapsed = time.monotonic() - start
                remaining = budget - elapsed
                if remaining <= 0:
                    timed_out = True
                    break
                if index == len(self.members) - 1:
                    share = remaining
                else:
                    share = max(remaining * weight / total_weight, 0.2)
                    share = min(share, remaining)
            else:
                share = None
            solver = factory(share)
            outcome = solver.synthesize(problem)
            stats.merge(outcome.stats)
            if outcome.solution is not None:
                elapsed = time.monotonic() - start
                solution = outcome.solution
                solution = type(solution)(
                    problem=solution.problem,
                    body=solution.body,
                    engine=f"{self.name}:{name}",
                    time_seconds=elapsed,
                )
                return SynthesisOutcome(solution, stats)
            timed_out = timed_out or outcome.timed_out
        return SynthesisOutcome(None, stats, timed_out=timed_out)


class ProcessPortfolio:
    """Race solver registry names concurrently in worker processes.

    Unlike :class:`SequentialPortfolio` (whose members are in-process
    factories), members are named so jobs can cross the process boundary;
    any name accepted by :func:`repro.service.jobs.build_solver` works.
    Solutions come back as serialized SyGuS text and are re-parsed into
    terms here.
    """

    name = "portfolio-mp"

    DEFAULT_MEMBERS = ("dryadsynth", "cegqi", "eusolver", "loopinvgen")

    def __init__(
        self,
        members: Sequence[str] = DEFAULT_MEMBERS,
        timeout: Optional[float] = None,
        workers: Optional[int] = None,
    ) -> None:
        if not members:
            raise ValueError("a portfolio needs at least one member")
        self.members = tuple(members)
        self.timeout = timeout
        self.workers = workers or len(self.members)

    def synthesize(self, problem: SygusProblem) -> SynthesisOutcome:
        from repro.service.jobs import (
            TIMEOUT,
            SynthesisJob,
            parse_solution_text,
        )
        from repro.service.pool import WorkerPool
        from repro.sygus.problem import Solution

        start = time.monotonic()
        jobs = [
            SynthesisJob.from_problem(
                problem,
                solver=member,
                timeout=self.timeout,
                name=f"{problem.name}:{member}",
            )
            for member in self.members
        ]
        with WorkerPool(workers=self.workers) as pool:
            winner, results = pool.race(jobs)
        stats = SynthesisStats()
        for result in results:
            if result.stats:
                stats.merge(SynthesisStats.from_json(result.stats))
        if winner is not None and winner.solution_text:
            body = parse_solution_text(problem, winner.solution_text)
            elapsed = time.monotonic() - start
            solution = Solution(
                problem, body, f"{self.name}:{winner.solver}", elapsed
            )
            return SynthesisOutcome(solution, stats)
        timed_out = any(r.status == TIMEOUT for r in results)
        return SynthesisOutcome(None, stats, timed_out=timed_out)


def virtual_best(results) -> Dict[str, Optional[object]]:
    """Per-benchmark best run (fastest solve) over a campaign.

    Returns ``{benchmark: RunResult or None}``; the VBS "solver" solves a
    benchmark iff anyone does, at the minimum observed time.
    """
    best: Dict[str, Optional[object]] = {}
    for result in results:
        current = best.get(result.benchmark)
        if not result.solved:
            best.setdefault(result.benchmark, None)
            continue
        if current is None or result.time_seconds < current.time_seconds:
            best[result.benchmark] = result
    return best


def vbs_summary(results) -> Dict[str, object]:
    """Aggregate VBS statistics: solved count, total time, contributions."""
    best = virtual_best(results)
    solved = [r for r in best.values() if r is not None]
    contributions: Dict[str, int] = {}
    for run in solved:
        contributions[run.solver] = contributions.get(run.solver, 0) + 1
    return {
        "solved": len(solved),
        "total": len(best),
        "total_time": round(sum(r.time_seconds for r in solved), 4),
        "contributions": dict(sorted(contributions.items())),
    }
