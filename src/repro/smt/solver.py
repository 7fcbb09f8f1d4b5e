"""Lazy DPLL(T) driver: SAT abstraction + LIA theory checks.

The solver repeatedly asks the CDCL core for a boolean model of the formula's
skeleton, checks the implied conjunction of linear constraints for integer
feasibility, and — on theory conflict — adds the unsat core as a blocking
lemma.  This is the classic lemmas-on-demand architecture, sufficient and
complete for QF_LIA.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.lang.ast import Kind, Term
from repro.lang.builders import not_
from repro.lang.simplify import simplify
from repro.lang.sorts import BOOL
from repro.lang.traversal import free_vars
from repro.smt import capture as _capture
from repro.smt import memo as _memo
from repro.smt.branch_bound import BudgetExceeded, check_lia
from repro.smt.implicant import extract_implicant
from repro.smt.simplex import pivots_total
from repro.smt.tseitin import CnfEncoder

Value = Union[int, bool]


class Status(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class SolverBudgetExceeded(Exception):
    """The solver ran out of its round/node/time budget."""


@dataclass
class Result:
    """Outcome of a satisfiability check."""

    status: Status
    model: Optional[Dict[str, Value]] = None
    rounds: int = 0
    #: On an UNSAT outcome of ``solve(assumptions=...)``: the subset of the
    #: passed assumption terms whose conjunction with the assertions is
    #: unsatisfiable.  Empty means the assertions alone are unsat — no
    #: choice of assumptions can ever make the query satisfiable.
    unsat_core: Tuple[Term, ...] = ()

    @property
    def is_sat(self) -> bool:
        return self.status is Status.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is Status.UNSAT


@dataclass
class SmtStats:
    """Cumulative statistics over a solver's lifetime."""

    checks: int = 0
    rounds: int = 0
    theory_conflicts: int = 0
    #: Theory lemmas asserted as permanent blocking clauses.
    lemmas: int = 0


class SmtSolver:
    """An incremental QF_LIA satisfiability checker.

    Assertions (and the clauses, atom variables and learned theory lemmas
    derived from them) accumulate across :meth:`check`/:meth:`solve`
    calls on one instance — CEGIS-style loops that strengthen a query keep
    everything already derived.  Use a fresh instance, as
    :func:`check_sat`/:func:`is_valid` do, for isolated one-shot checks.

    :meth:`solve` also accepts *assumptions* — Bool terms required for that
    call only, without discarding solver state.  An UNSAT answer then
    carries the unsat assumption core.
    """

    #: Sentinel: "use the process-wide default query memo".
    USE_DEFAULT_MEMO = object()

    def __init__(
        self,
        max_rounds: int = 100000,
        lia_node_budget: int = 20000,
        deadline: Optional[float] = None,
        memo: object = USE_DEFAULT_MEMO,
    ) -> None:
        self.max_rounds = max_rounds
        self.lia_node_budget = lia_node_budget
        self.deadline = deadline
        self.stats = SmtStats()
        self._encoder = CnfEncoder()
        # Simplified assertions in add order; the first ``_encoded`` of them
        # are CNF-encoded into ``_encoder``.
        self._assertions: List[Term] = []
        self._encoded = 0
        self._trivially_false = False
        if memo is SmtSolver.USE_DEFAULT_MEMO:
            memo = _memo.default_memo()
        self.memo: Optional[_memo.QueryMemo] = memo  # type: ignore[assignment]

    def add(self, formula: Term) -> None:
        """Assert a formula (incremental interface).

        Only simplifies and records the formula.  It is CNF-encoded, after
        every earlier assertion, at the start of the next :meth:`solve` that
        runs DPLL(T): a memo miss, a solver without a memo, or a captured
        solve.  So a formula the encoder rejects raises from that
        ``solve()``, not from ``add()``: ``ValueError`` for an uninlined
        function application, ``LinearityError`` for a nonlinear term.
        Only the Tseitin encoding and its clauses are built per solver; the
        simplified and prepared forms and the canonical comparison atoms
        come from process-wide tables that every solver shares.  Clauses
        and learned theory lemmas persist across :meth:`solve` calls, so
        CEGIS-style loops that strengthen one query keep everything the
        solver already derived.
        """
        if formula.sort is not BOOL:
            raise ValueError("add() expects a Bool-sorted formula")
        formula = simplify(formula)
        if formula.kind is Kind.CONST:
            if not formula.payload:
                self._trivially_false = True
            return
        self._assertions.append(formula)

    def _encode_pending(self) -> None:
        """CNF-encode the assertions added since the last encoding, in order."""
        assertions = self._assertions
        while self._encoded < len(assertions):
            self._encoder.assert_formula(assertions[self._encoded])
            self._encoded += 1

    @property
    def learnt_clauses_deleted(self) -> int:
        """Learnt clauses dropped by the SAT core's DB reduction (lifetime)."""
        return self._encoder.sat.num_learnts_deleted

    def check(self, formula: Term) -> Result:
        """Incremental satisfiability check: ``add(formula)`` then :meth:`solve`.

        Note this is *not* one-shot on a reused instance — assertions from
        earlier ``add``/``check`` calls stay in force, so the result is the
        satisfiability of the conjunction of everything asserted so far.
        Construct a fresh :class:`SmtSolver`, as the module-level helpers
        :func:`check_sat` / :func:`is_valid` do, for an isolated check.

        Raises:
            SolverBudgetExceeded: on timeout or budget exhaustion.
        """
        self.add(formula)
        return self.solve()

    def solve(self, assumptions: Sequence[Term] = ()) -> Result:
        """Run the lazy DPLL(T) loop over everything asserted so far.

        ``assumptions`` are Bool terms additionally required *for this call
        only*; nothing about them is retained except what the solver learned
        while exploring them.  When the answer is UNSAT, the result's
        :attr:`~Result.unsat_core` is the subset of assumptions responsible
        (empty when the permanent assertions are unsat by themselves).

        With telemetry enabled (:func:`repro.obs.recording`) every call
        becomes an ``smt.solve`` span and updates the ``smt.*``/``sat.*``
        metrics; disabled, the check below is the entire overhead.

        With query capture active (:func:`repro.smt.capture.capturing`, the
        ``--smt-corpus`` flag) the call is additionally serialized — query,
        outcome, model and wall time — into the replayable corpus.  Capture
        bypasses the query memo entirely: a recorded corpus must reflect
        real solves.

        When the solver carries a :class:`~repro.smt.memo.QueryMemo` (the
        process-wide default unless constructed with ``memo=None``), the
        memo is consulted first, under the key of the interned assertions,
        the trivially-false flag and the assumption terms.  A query that
        matches a previously *decided* one returns the cached
        status/model/core without encoding anything or running DPLL(T); see
        :mod:`repro.smt.memo` for the soundness argument.  Any other solve
        first CNF-encodes the assertions added since the last encoding (see
        :meth:`add`), so an encoding error raises here.
        """
        if _capture.active() is not None:
            return self._solve_captured(assumptions)
        memo = self.memo
        if memo is None:
            return self._solve_dispatch(assumptions)
        key = (tuple(self._assertions), self._trivially_false, tuple(assumptions))
        cached = memo.lookup(key)
        if cached is not None:
            # A hit is still a check from the caller's perspective; rounds
            # report the original solve's work, stats count no new rounds.
            self.stats.checks += 1
            return cached
        result = self._solve_dispatch(assumptions)
        memo.store(key, result)
        return result

    def _solve_dispatch(self, assumptions: Sequence[Term]) -> Result:
        """Encode what is pending, then take the plain or traced solve path."""
        self._encode_pending()
        if obs.active() is None:
            return self._solve_impl(assumptions)
        return self._solve_traced(assumptions)

    def _solve_captured(self, assumptions: Sequence[Term]) -> Result:
        """One captured solve: snapshot the query, run, record the outcome.

        The snapshot happens *before* solving (the outcome must describe the
        query as issued); a budget abort is recorded as its own status so
        replay can reproduce even aborted queries.
        """
        writer = _capture.active()
        self._encode_pending()
        query = writer.snapshot(self, assumptions)
        start = time.monotonic()
        status = "error"
        model = None
        try:
            result = self._solve_dispatch(assumptions)
            status = result.status.value
            model = result.model
            return result
        except SolverBudgetExceeded:
            # A wall-clock abort is an artifact of this run's deadline, not a
            # property of the query; record it distinctly so replay knows the
            # outcome is not reproducible on a fresh, undeadlined solver.
            if self.deadline is not None and time.monotonic() >= self.deadline:
                status = "deadline-exceeded"
            else:
                status = "budget-exceeded"
            raise
        finally:
            writer.record(
                query,
                status,
                model,
                time.monotonic() - start,
                {
                    "max_rounds": self.max_rounds,
                    "lia_node_budget": self.lia_node_budget,
                },
            )

    def _solve_traced(self, assumptions: Sequence[Term]) -> Result:
        """One telemetered solve: an ``smt.solve`` span plus metric deltas."""
        sat = self._encoder.sat
        registry = obs.metrics()
        before = (
            self.stats.rounds,
            self.stats.lemmas,
            self.stats.theory_conflicts,
            sat.num_conflicts,
            sat.num_decisions,
            sat.num_learnts_deleted,
            pivots_total(),
        )
        start = time.monotonic()
        with obs.span("smt.solve", assumptions=len(assumptions)) as span:
            status = "error"
            result: Optional[Result] = None
            try:
                result = self._solve_impl(assumptions)
                status = result.status.value
                return result
            finally:
                wall = time.monotonic() - start
                rounds = self.stats.rounds - before[0]
                pivots = pivots_total() - before[6]
                registry.counter("smt.checks").inc()
                registry.counter("smt.rounds").inc(rounds)
                registry.counter("smt.lemmas").inc(self.stats.lemmas - before[1])
                registry.counter("smt.theory_conflicts").inc(
                    self.stats.theory_conflicts - before[2]
                )
                registry.counter("sat.conflicts").inc(sat.num_conflicts - before[3])
                registry.counter("sat.decisions").inc(sat.num_decisions - before[4])
                registry.counter("sat.learnts_deleted").inc(
                    sat.num_learnts_deleted - before[5]
                )
                registry.counter("smt.simplex_pivots").inc(pivots)
                registry.gauge("sat.learnts").set_max(sat.num_learnts)
                registry.gauge("sat.vars").set_max(sat.num_vars)
                registry.histogram("smt.solve_seconds").observe(wall)
                span.set(status=status, rounds=rounds, pivots=pivots)

    def _solve_impl(self, assumptions: Sequence[Term] = ()) -> Result:
        self.stats.checks += 1
        if self._trivially_false:
            return Result(Status.UNSAT, None, 0)
        encoder = self._encoder
        assumption_lits: List[int] = []
        lit_to_term: Dict[int, Term] = {}
        prepared_assumptions: List[Term] = []
        for term in assumptions:
            if term.sort is not BOOL:
                raise ValueError("assumptions must be Bool-sorted formulas")
            simplified = simplify(term)
            if simplified.kind is Kind.CONST:
                if simplified.payload:
                    continue
                return Result(Status.UNSAT, None, 0, unsat_core=(term,))
            prepared, lit = encoder.prepare_literal(simplified)
            prepared_assumptions.append(prepared)
            assumption_lits.append(lit)
            lit_to_term.setdefault(lit, term)
        if not encoder.asserted and not prepared_assumptions:
            return Result(Status.SAT, {}, 0)
        rounds = 0
        while True:
            rounds += 1
            self.stats.rounds += 1
            if rounds > self.max_rounds:
                raise SolverBudgetExceeded(f"exceeded {self.max_rounds} DPLL(T) rounds")
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise SolverBudgetExceeded("SMT deadline exceeded")
            encoder.sat.deadline = self.deadline
            try:
                sat_model = encoder.sat.solve(assumptions=assumption_lits)
            except encoder.sat.Interrupted as exc:
                raise SolverBudgetExceeded(str(exc)) from exc
            if sat_model is None:
                failed = set(encoder.sat.unsat_core)
                core = tuple(
                    lit_to_term[lit]
                    for lit in assumption_lits
                    if lit in failed and lit in lit_to_term
                )
                return Result(Status.UNSAT, None, rounds, unsat_core=core)
            # Only the atoms of a satisfying implicant go to the theory
            # solver; conflicts then yield small, reusable lemmas.
            needed = extract_implicant(encoder, sat_model, prepared_assumptions)
            constraints = []
            for atom, positive in needed.items():
                var = encoder.atom_vars[atom]
                expr = atom.to_linexpr() if positive else atom.negate().to_linexpr()
                lit = var if positive else -var
                constraints.append((expr, lit))
            try:
                feasible, payload = check_lia(
                    constraints, self.lia_node_budget, self.deadline
                )
            except BudgetExceeded as exc:
                raise SolverBudgetExceeded(str(exc)) from exc
            if feasible:
                model = self._build_model(
                    payload, encoder, sat_model, prepared_assumptions
                )
                return Result(Status.SAT, model, rounds)
            self.stats.theory_conflicts += 1
            core = payload
            if not core:
                return Result(Status.UNSAT, None, rounds)
            core = self._minimize_core(constraints, core)
            encoder.sat.add_clause([-lit for lit in core])
            self.stats.lemmas += 1

    def _minimize_core(self, constraints, core):
        """Deletion-based core shrinking: smaller cores mean stronger lemmas.

        Each candidate deletion costs one LIA feasibility check on a small
        conjunction, which is far cheaper than the extra DPLL(T) rounds a fat
        lemma causes.
        """
        if len(core) <= 4 or len(core) > 24:
            return core
        by_tag = {tag: expr for expr, tag in constraints}
        current = list(core)
        checks_left = 12
        index = 0
        # Single linear deletion pass with a tiny node budget per check;
        # minimisation is strictly best-effort.
        while index < len(current) and len(current) > 1 and checks_left > 0:
            trial = current[:index] + current[index + 1 :]
            checks_left -= 1
            try:
                feasible, payload = check_lia(
                    [(by_tag[t], t) for t in trial], 60, self.deadline
                )
            except BudgetExceeded:
                # Node budget or deadline hit: stop shrinking, keep what we
                # have — minimisation must never overshoot a near-expired
                # deadline.
                return current
            if feasible:
                index += 1
            else:
                payload_set = set(payload)
                shrunk = [t for t in trial if t in payload_set]
                current = shrunk or trial
        return current

    def _build_model(
        self,
        int_model: Dict[str, int],
        encoder: CnfEncoder,
        sat_model: Dict[int, bool],
        extra: Sequence[Term] = (),
    ) -> Dict[str, Value]:
        model: Dict[str, Value] = dict(int_model)
        for name, var in encoder.bool_vars.items():
            model[name] = sat_model[var]
        for formula in list(encoder.asserted) + list(extra):
            for var_term in free_vars(formula):
                name = var_term.payload
                if name not in model:
                    model[name] = False if var_term.sort is BOOL else 0
        return model


def check_sat(
    formula: Term,
    deadline: Optional[float] = None,
) -> Result:
    """Convenience one-shot satisfiability check."""
    return SmtSolver(deadline=deadline).check(formula)


def is_valid(
    formula: Term,
    deadline: Optional[float] = None,
) -> Tuple[bool, Optional[Dict[str, Value]]]:
    """Validity check; returns ``(True, None)`` or ``(False, counterexample)``."""
    result = SmtSolver(deadline=deadline).check(not_(formula))
    if result.is_unsat:
        return True, None
    if result.is_sat:
        return False, result.model
    raise SolverBudgetExceeded("validity check returned unknown")


def get_counterexample(
    formula: Term,
    deadline: Optional[float] = None,
) -> Optional[Dict[str, Value]]:
    """A falsifying assignment for ``formula``, or None if it is valid."""
    valid, counterexample = is_valid(formula, deadline)
    return None if valid else counterexample
