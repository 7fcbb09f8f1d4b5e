"""The counterexample-guided inductive synthesis loop (Section 2.2).

:class:`CegisLoop` is the repository's one verify → screen →
add-counterexample → inductive-step loop.  The fixed-height engine
(Algorithm 2) subclasses it with its symbolic inductive step; the baselines
run it through :func:`cegis` with a *synthesizer callback* that proposes
candidates consistent with the accumulated counterexamples.  The verifier
(condition 2.4, discharged by the SMT substrate) either accepts a candidate
or produces a new counterexample.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.obs import forensics
from repro.lang.ast import Term
from repro.lang.evaluator import EvaluationError, Value
from repro.smt.solver import SolverBudgetExceeded
from repro.sygus.problem import SygusProblem
from repro.synth.examples import ExampleSet
from repro.synth.result import SynthesisStats

Example = Dict[str, Value]

#: Proposes a candidate consistent with the examples, or None if impossible.
InductiveSynthesizer = Callable[[List[Example]], Optional[Term]]

#: Rounds one CEGIS run may start before it gives up on its search space.
MAX_CEGIS_ROUNDS = 40


class CegisTimeout(Exception):
    """The CEGIS loop hit its wall-clock deadline."""


class CegisLoop:
    """One CEGIS run over one problem.

    The loop's state lives on the object — the current candidate, whether
    it came from the inductive step, the number of started rounds and
    exhaustion — where :meth:`run` leaves it.  Each started round adds one
    to ``stats.cegis_iterations``.  ``attrs`` (e.g. ``{"height": 2}``)
    label the loop's spans and forensics events.

    The inductive step is the ``ind_synth`` callback, or an override of
    :meth:`ind_synth` in a subclass.
    """

    def __init__(
        self,
        problem: SygusProblem,
        ind_synth: Optional[InductiveSynthesizer] = None,
        candidate: Optional[Term] = None,
        max_rounds: int = MAX_CEGIS_ROUNDS,
        stats: Optional[SynthesisStats] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.problem = problem
        self._ind_synth = ind_synth
        self.candidate = candidate
        self.from_ind_synth = False
        self.max_rounds = max_rounds
        self.stats = stats if stats is not None else SynthesisStats()
        self.attrs = dict(attrs or {})
        self.rounds = 0
        self.exhausted = False

    def ind_synth(
        self, examples: List[Example], deadline: Optional[float]
    ) -> Optional[Term]:
        """A candidate consistent with ``examples``, or None if none exists."""
        assert self._ind_synth is not None
        return self._ind_synth(examples)

    def run(
        self, examples: List[Example], deadline: Optional[float] = None
    ) -> Optional[Term]:
        """Run the loop; returns a verified candidate, or None once exhausted.

        ``examples`` is mutated in place, so callers can share
        counterexamples across runs.

        Raises:
            CegisTimeout: when the deadline expires mid-loop, or a verify or
                inductive query overruns its per-query budget.
        """
        with obs.span(
            "cegis", problem=self.problem.name, **self.attrs
        ) as loop_span:
            result = self._loop(ExampleSet.wrap(examples), deadline)
            loop_span.set(rounds=self.rounds, exhausted=self.exhausted,
                          solved=result is not None)
            return result

    def _loop(
        self, examples: ExampleSet, deadline: Optional[float]
    ) -> Optional[Term]:
        problem, attrs = self.problem, self.attrs
        if self.candidate is None and not self._induce(examples, deadline):
            return None
        while self.rounds < self.max_rounds:
            check_deadline(deadline)
            self.rounds += 1
            self.stats.cegis_iterations += 1
            forensics.emit(
                forensics.CEGIS_ITER,
                iteration=self.rounds,
                **attrs,
                examples=len(examples),
            )
            # Compiled screening: a candidate refuted by a *known* example
            # (after a height bump or from a shared example pool) never
            # needs the SMT validity check — reuse that example.
            counterexample = _screen(problem, self.candidate, examples)
            if counterexample is None:
                try:
                    with obs.span("verify", problem=problem.name, **attrs):
                        ok, counterexample = problem.verify(
                            self.candidate, deadline
                        )
                except SolverBudgetExceeded as exc:
                    raise CegisTimeout(str(exc)) from exc
                if ok:
                    return self.candidate
            assert counterexample is not None
            if examples.add(counterexample):
                forensics.emit(
                    forensics.CEGIS_CEX,
                    iteration=self.rounds,
                    **attrs,
                    cex=forensics.render_example(counterexample),
                )
            elif self.from_ind_synth:
                # ind_synth claimed consistency with this example yet the
                # verifier refutes the candidate on it: no progress is
                # possible (the candidate space is exhausted).
                self.exhausted = True
                return None
            if not self._induce(examples, deadline):
                return None
        self.exhausted = True
        return None

    def _induce(self, examples: ExampleSet, deadline: Optional[float]) -> bool:
        """Run the inductive step; False (and exhausted) when it finds none."""
        try:
            with obs.span("ind_synth", problem=self.problem.name,
                          **self.attrs, examples=len(examples)):
                candidate = self.ind_synth(examples, deadline)
        except SolverBudgetExceeded as exc:
            raise CegisTimeout(str(exc)) from exc
        if candidate is None:
            self.exhausted = True
            return False
        self.candidate = candidate
        self.from_ind_synth = True
        return True


def cegis(
    problem: SygusProblem,
    ind_synth: InductiveSynthesizer,
    initial_candidate: Optional[Term] = None,
    examples: Optional[List[Example]] = None,
    max_rounds: int = MAX_CEGIS_ROUNDS,
    deadline: Optional[float] = None,
) -> Tuple[Optional[Term], List[Example], int]:
    """Run CEGIS to completion; returns ``(solution or None, examples,
    iterations)``.

    ``examples`` is mutated in place when provided.

    Raises:
        CegisTimeout: when the deadline expires mid-loop.
    """
    examples = ExampleSet.wrap(examples)
    loop = CegisLoop(problem, ind_synth, initial_candidate, max_rounds)
    return loop.run(examples, deadline), examples, loop.rounds


def check_deadline(deadline: Optional[float]) -> None:
    """Raise :class:`CegisTimeout` once the wall clock passes ``deadline``."""
    if deadline is not None and time.monotonic() > deadline:
        raise CegisTimeout("CEGIS deadline exceeded")


def _screen(
    problem: SygusProblem, candidate: Term, examples: ExampleSet
) -> Optional[Example]:
    """A known example refuting ``candidate``, found by compiled evaluation.

    Any evaluation failure simply defers to the SMT verifier — screening is
    a fast path, never a gatekeeper."""
    try:
        violation = problem.first_violation(candidate, examples)
    except EvaluationError:
        return None
    return dict(violation) if violation is not None else None
