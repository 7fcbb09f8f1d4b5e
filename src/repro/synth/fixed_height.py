"""Fixed-height synthesis (Algorithm 2) and height enumeration (Section 5).

``fixed_height`` runs one CEGIS loop whose inductive queries are discharged
symbolically: the candidate space (all programs of syntax-tree height <= h)
is encoded as unknown integer coefficients/selectors and each query becomes
one QF_LIA SMT call.  ``HeightEnumerationSynthesizer`` wraps it in the
height-increasing outer loop, guaranteeing the smallest-height solution; this
standalone form is the "plain height-based enumeration" baseline of the
paper's ablation study (Figure 14).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.lang.ast import Kind, Term
from repro.lang.builders import and_, bool_var, implies, int_const
from repro.lang.evaluator import EvaluationError, evaluate
from repro.lang.traversal import rewrite_bottom_up
from repro.smt.solver import SmtSolver, SolverBudgetExceeded, Status
from repro.sygus.problem import Solution, SygusProblem
from repro.synth.cegis import CegisLoop, CegisTimeout, Example, check_deadline
from repro.synth.encoding import (
    CliaTreeEncoder,
    EncodingUnsupported,
    GeneralGrammarEncoder,
    grammar_is_full_clia,
)
from repro.synth.result import SynthesisOutcome, SynthesisStats

#: The tallest syntax tree height enumeration tries.
MAX_HEIGHT = 4

#: Bound on the decision-tree coefficients ``c_i``.
COEFF_BOUND = 2

#: Widening schedule for the constant terms ``d_i``: constants are searched
#: in widening rounds, the way the paper's implementation bounds them.
CONST_BOUNDS = (1, 10, 100)


def make_encoder(problem: SygusProblem, height: int, prefix: str = "fh"):
    """Choose the most structured encoding the grammar admits.

    CLIA grammars get the decision-tree normal form (Figure 5); affine
    operator grammars like ``G_qm`` get the paper's adapted ``interpret_h``
    with operator nodes over affine leaves; everything else falls back to the
    generic production-selector encoding.
    """
    from repro.synth.affine_encoding import AffineSpineEncoder, affine_operator_view

    if grammar_is_full_clia(problem.synth_fun.grammar):
        return CliaTreeEncoder(problem.synth_fun, height, prefix)
    if (
        problem.synth_fun.return_sort.name == "Int"
        and affine_operator_view(problem.synth_fun.grammar) is not None
    ):
        return AffineSpineEncoder(problem.synth_fun, height, prefix)
    return GeneralGrammarEncoder(problem.synth_fun, height, prefix)


def inductive_query(
    problem: SygusProblem,
    encoder,
    examples: Sequence[Example],
) -> Term:
    """The symbolic constraint “candidate satisfies the spec on every example”.

    For each example the spec's variables are fixed to concrete values and
    every invocation of the synth-fun is replaced by the encoder's symbolic
    interpretation on the (now concrete) argument vector — the
    ``interpret_h`` substitution of Section 5.2.
    """
    fun_name = problem.fun_name
    parts: List[Term] = []
    for env in examples:
        side_constraints: List[Term] = []

        def rewrite(t: Term) -> Term:
            if t.kind is Kind.VAR and t.payload in env:
                value = env[t.payload]  # type: ignore[index]
                if t.sort.name == "Int":
                    return int_const(int(value))
                from repro.lang.builders import bool_const

                return bool_const(bool(value))
            if t.kind is Kind.APP and t.payload == fun_name:
                arg_values = []
                for arg in t.args:
                    try:
                        arg_values.append(int(evaluate(arg, {})))
                    except EvaluationError as exc:
                        raise EncodingUnsupported(
                            "nested synth-fun invocations are not supported by "
                            "the symbolic encoding"
                        ) from exc
                value, side = encoder.app_instance(arg_values)
                if side.kind is not Kind.CONST or not side.payload:
                    side_constraints.append(side)
                return value
            return t

        instantiated = rewrite_bottom_up(problem.spec, rewrite)
        parts.append(instantiated)
        parts.extend(side_constraints)
    return and_(*parts)


def _seeded_bounds(problem: SygusProblem, schedule) -> tuple:
    """Drop widening rounds that cannot cover the spec's own constants.

    If the specification mentions the constant 100, a candidate with
    constants bounded by 1 almost never verifies; starting the widening at
    the smallest bound >= the largest spec constant skips provably useless
    UNSAT rounds.
    """
    from repro.lang.ast import Kind
    from repro.lang.traversal import subexpressions

    largest = 1
    for sub_term in subexpressions(problem.spec):
        if sub_term.kind is Kind.CONST and isinstance(sub_term.payload, int):
            largest = max(largest, abs(sub_term.payload))
    kept = tuple(b for b in schedule if b >= largest)
    if kept:
        return kept
    return schedule[-1:]


class FixedHeightSession(CegisLoop):
    """A resumable Algorithm-2 run at one (problem, height).

    The session is the shared :class:`~repro.synth.cegis.CegisLoop` with a
    symbolic inductive step.  It owns the symbolic encoder and **one**
    incremental SMT solver; constant-bound widening is done by solving under
    an assumption literal that activates the current bound's range
    constraints, so clause learning, atom canonicalisation and theory lemmas
    are shared across every bound and every CEGIS iteration.  Each iteration
    only asserts the newest counterexample, and solver state also persists
    across *preempted time slices* (the cooperative loop parks a session
    when its slice expires and resumes it later).  When a query is unsat
    without the bound guard in the unsat assumption core, no wider bound can
    help and the widening loop stops early.
    """

    def __init__(
        self,
        problem: SygusProblem,
        height: int,
        stats: Optional[SynthesisStats] = None,
        prefix: Optional[str] = None,
    ) -> None:
        self.height = height
        self.prefix = prefix or f"fh{height}"
        self.encoder = make_encoder(problem, height, self.prefix)
        if self.encoder.has_const_unknowns:
            self.bounds = _seeded_bounds(problem, CONST_BOUNDS)
        else:
            self.bounds = CONST_BOUNDS[:1]
        self._solver: Optional[SmtSolver] = None
        self._bound_guards: Dict[int, Term] = {}
        self._asserted_examples = 0
        # Bounds below this index are permanently unsat: their guard appeared
        # in an unsat assumption core, and example sets only ever grow.
        self._first_viable = 0
        self._lemmas_seen = 0
        self._deleted_seen = 0
        super().__init__(
            problem,
            candidate=self.encoder.initial_candidate(),
            stats=stats,
            attrs={"height": height},
        )

    @property
    def solver(self) -> Optional[SmtSolver]:
        """The session's single incremental solver (None until first query)."""
        return self._solver

    def _bound_guard(self, solver: SmtSolver, const_bound: int) -> Term:
        """The assumption literal activating ``const_bound``'s constraints.

        The implication ``guard -> static_constraints(bound)`` is asserted
        permanently on first use; while the guard is not assumed, it is a
        free variable and the constraints are vacuous.
        """
        guard = self._bound_guards.get(const_bound)
        if guard is None:
            guard = bool_var(f"{self.prefix}!bound{const_bound}")
            solver.add(
                implies(
                    guard,
                    self.encoder.static_constraints(COEFF_BOUND, const_bound),
                )
            )
            self._bound_guards[const_bound] = guard
        return guard

    def ind_synth(
        self, examples: List[Example], deadline: Optional[float]
    ) -> Optional[Term]:
        """The symbolic inductive step: one guarded SMT query per bound."""
        solver = self._solver
        if solver is None:
            solver = self._solver = SmtSolver()
        solver.deadline = deadline
        for example in examples[self._asserted_examples :]:
            solver.add(inductive_query(self.problem, self.encoder, [example]))
        self._asserted_examples = len(examples)
        stats = self.stats
        rounds_before = solver.stats.rounds
        try:
            for index in range(self._first_viable, len(self.bounds)):
                const_bound = self.bounds[index]
                check_deadline(deadline)
                guard = self._bound_guard(solver, const_bound)
                stats.smt_checks += 1
                with obs.span(
                    "widen",
                    problem=self.problem.name,
                    height=self.height,
                    const_bound=const_bound,
                ):
                    result = solver.solve(assumptions=[guard])
                if result.status is Status.SAT:
                    assert result.model is not None
                    return self.encoder.decode(
                        result.model, self.problem.synth_fun.params
                    )
                if guard not in result.unsat_core:
                    # The examples are inconsistent with the encoding no
                    # matter how wide the constant range: skip the rest of
                    # the widening schedule.
                    stats.assumption_core_skips += len(self.bounds) - index - 1
                    break
                # This bound is dead for the current examples, hence for
                # every future (superset) example set too.
                self._first_viable = index + 1
            return None
        finally:
            stats.smt_rounds += solver.stats.rounds - rounds_before
            stats.theory_lemmas += solver.stats.lemmas - self._lemmas_seen
            self._lemmas_seen = solver.stats.lemmas
            deleted = solver.learnt_clauses_deleted
            stats.learnt_clauses_deleted += deleted - self._deleted_seen
            self._deleted_seen = deleted


def fixed_height(
    problem: SygusProblem,
    height: int,
    examples: Optional[List[Example]] = None,
    deadline: Optional[float] = None,
    stats: Optional[SynthesisStats] = None,
    prefix: Optional[str] = None,
    session_store: Optional[Dict[int, FixedHeightSession]] = None,
) -> Optional[Term]:
    """Algorithm 2: CEGIS with symbolic fixed-height inductive synthesis.

    Returns a candidate body of height <= ``height`` satisfying the spec, or
    None if none exists (within the coefficient and constant bounds).  Pass a
    ``session_store`` dict to make preempted runs resumable (the cooperative
    loop does this per subproblem node).

    Raises:
        CegisTimeout: when the deadline expires.
        EncodingUnsupported: when the grammar cannot be encoded.
    """
    if examples is None:
        examples = []
    session: Optional[FixedHeightSession] = None
    if session_store is not None:
        session = session_store.get(height)
    if session is None:
        session = FixedHeightSession(problem, height, stats, prefix)
        if session_store is not None:
            session_store[height] = session
    elif stats is not None:
        session.stats = stats
    return session.run(examples, deadline)


class HeightEnumerationSynthesizer:
    """Plain height-based enumeration: try h = 1, 2, ... (Section 5.1).

    Counterexamples are shared across heights, mirroring the paper's
    parallelised implementation which shares the counterexample set between
    per-height CEGIS loops.
    """

    name = "height-enum"

    def __init__(self, timeout: Optional[float] = None):
        self.timeout = timeout

    def synthesize(self, problem: SygusProblem) -> SynthesisOutcome:
        with obs.span("synth", problem=problem.name, solver=self.name):
            outcome = self._synthesize_impl(problem)
        if obs.enabled():
            obs.publish_stats(outcome.stats)
        return outcome

    def _synthesize_impl(self, problem: SygusProblem) -> SynthesisOutcome:
        stats = SynthesisStats()
        deadline = (
            time.monotonic() + self.timeout if self.timeout is not None else None
        )
        start = time.monotonic()
        examples: List[Example] = []
        for height in range(1, MAX_HEIGHT + 1):
            stats.heights_tried += 1
            stats.max_height_reached = height
            try:
                body = fixed_height(
                    problem,
                    height,
                    examples=examples,
                    deadline=deadline,
                    stats=stats,
                )
            except (CegisTimeout, SolverBudgetExceeded):
                # A budget exception is only a *global* timeout when the wall
                # clock actually expired; a per-query budget (e.g. the LIA
                # node budget) exhausted at one height must not abandon the
                # whole enumeration — the next height may still be easy.
                if deadline is not None and time.monotonic() > deadline:
                    return SynthesisOutcome(None, stats, timed_out=True)
                continue
            except EncodingUnsupported:
                return SynthesisOutcome(None, stats)
            if body is not None:
                elapsed = time.monotonic() - start
                solution = Solution(problem, body, self.name, elapsed)
                return SynthesisOutcome(solution, stats)
        return SynthesisOutcome(None, stats)
