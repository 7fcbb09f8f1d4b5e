"""The single-solver assumption-based bound-widening session.

Pins the tentpole invariant (one incremental ``SmtSolver`` per session,
whatever the widening schedule) and the ``HeightEnumerationSynthesizer``
budget-vs-timeout bugfix.
"""

import time

import pytest

from repro.lang import and_, eq, ge, implies, int_var, le, or_
from repro.lang.sorts import INT
from repro.smt.solver import SmtSolver, SolverBudgetExceeded
from repro.sygus.grammar import clia_grammar
from repro.sygus.problem import SygusProblem, SynthFun
from repro.synth import fixed_height as fixed_height_module
from repro.synth.fixed_height import (
    FixedHeightSession,
    HeightEnumerationSynthesizer,
)
from repro.synth.result import SynthesisStats

x, y = int_var("x"), int_var("y")


def _max2_problem():
    fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
    fx = fun.apply((x, y))
    spec = and_(ge(fx, x), ge(fx, y), or_(eq(fx, x), eq(fx, y)))
    return SygusProblem(fun, spec, (x, y), name="max2")


def _const_problem(value: int):
    """f() must equal a specific constant: forces constant-bound widening."""
    fun = SynthFun("f", (x,), INT, clia_grammar((x,)))
    fx = fun.apply((x,))
    return SygusProblem(fun, eq(fx, value), (x,), name=f"const{value}")


class TestSingleSolverInvariant:
    def test_session_holds_exactly_one_solver(self):
        problem = _max2_problem()
        session = FixedHeightSession(problem, 2)
        assert session.solver is None  # lazily created on the first query
        body = session.run([])
        assert body is not None
        assert isinstance(session.solver, SmtSolver)
        # One solver total — widening happened via assumptions, not via a
        # per-bound solver fleet.
        assert not hasattr(session, "_solvers")

    def test_widening_needs_one_solver_and_finds_large_const(self):
        problem = _const_problem(73)
        session = FixedHeightSession(problem, 1)
        body = session.run([])
        assert body is not None
        ok, _ = problem.verify(body)
        assert ok
        assert isinstance(session.solver, SmtSolver)

    def test_solver_state_reused_across_cegis_iterations(self):
        problem = _max2_problem()
        session = FixedHeightSession(problem, 2)
        body = session.run([])
        assert body is not None
        solver = session.solver
        # Multiple CEGIS iterations ran; all their queries hit this solver.
        assert solver is not None
        assert solver.stats.checks >= 2

    def test_stats_record_smt_rounds(self):
        problem = _max2_problem()
        stats = SynthesisStats()
        session = FixedHeightSession(problem, 2, stats=stats)
        assert session.run([]) is not None
        assert stats.smt_checks > 0
        assert stats.smt_rounds > 0


class TestAssumptionCoreSkips:
    def test_unsat_without_guard_skips_remaining_bounds(self):
        # Height 1 cannot express max2 (needs an ite): ind-synth eventually
        # goes unsat for reasons independent of the constant bound, and the
        # unsat assumption core proves it, skipping the wider bounds.
        problem = _max2_problem()
        stats = SynthesisStats()
        session = FixedHeightSession(problem, 1, stats=stats)
        assert session.run([]) is None
        assert session.exhausted
        assert stats.assumption_core_skips > 0

    def test_dead_bounds_are_never_retried(self):
        problem = _const_problem(73)
        session = FixedHeightSession(problem, 1)
        # Widening discards bounds that cannot reach 73 (spec-constant
        # seeding may already drop some; the session must end viable).
        assert session.run([]) is not None
        assert session._first_viable < len(session.bounds)


class TestHeightBudgetRegression:
    def test_budget_exhaustion_at_one_height_advances_to_next(self, monkeypatch):
        # Regression: any SolverBudgetExceeded (e.g. the LIA node budget at
        # one height) used to be treated as a global timeout, abandoning the
        # enumeration even though the next height might be easy.
        problem = _max2_problem()
        calls = []

        def fake_fixed_height(problem, height, **kwargs):
            calls.append(height)
            if height == 1:
                raise SolverBudgetExceeded("exceeded 20000 LIA nodes")
            return fixed_height_module.make_encoder(
                problem.synth_fun, height
            ).initial_candidate()

        monkeypatch.setattr(fixed_height_module, "fixed_height", fake_fixed_height)
        monkeypatch.setattr(fixed_height_module, "MAX_HEIGHT", 3)
        synthesizer = HeightEnumerationSynthesizer(60.0)
        outcome = synthesizer.synthesize(problem)
        assert calls == [1, 2] or calls[:2] == [1, 2]
        assert not outcome.timed_out

    def test_real_wall_clock_expiry_still_times_out(self, monkeypatch):
        problem = _max2_problem()

        def fake_fixed_height(problem, height, **kwargs):
            raise SolverBudgetExceeded("SMT deadline exceeded")

        monkeypatch.setattr(fixed_height_module, "fixed_height", fake_fixed_height)
        monkeypatch.setattr(fixed_height_module, "MAX_HEIGHT", 3)
        synthesizer = HeightEnumerationSynthesizer(-1.0)
        outcome = synthesizer.synthesize(problem)
        assert outcome.timed_out
        assert not outcome.solved

    def test_budget_exhaustion_on_every_height_is_not_a_timeout(self, monkeypatch):
        problem = _max2_problem()

        def fake_fixed_height(problem, height, **kwargs):
            raise SolverBudgetExceeded("exceeded 20000 LIA nodes")

        monkeypatch.setattr(fixed_height_module, "fixed_height", fake_fixed_height)
        monkeypatch.setattr(fixed_height_module, "MAX_HEIGHT", 2)
        synthesizer = HeightEnumerationSynthesizer(60.0)
        outcome = synthesizer.synthesize(problem)
        assert not outcome.timed_out
        assert not outcome.solved
        assert outcome.stats.heights_tried == 2


class TestStatsPlumbing:
    def test_merge_includes_new_counters(self):
        a = SynthesisStats(
            smt_rounds=3,
            theory_lemmas=2,
            assumption_core_skips=1,
            learnt_clauses_deleted=4,
        )
        b = SynthesisStats(
            smt_rounds=10,
            theory_lemmas=1,
            assumption_core_skips=2,
            learnt_clauses_deleted=0,
        )
        a.merge(b)
        assert a.smt_rounds == 13
        assert a.theory_lemmas == 3
        assert a.assumption_core_skips == 3
        assert a.learnt_clauses_deleted == 4

    def test_from_json_roundtrip(self):
        stats = SynthesisStats(smt_rounds=7, assumption_core_skips=5)
        from dataclasses import asdict

        rebuilt = SynthesisStats.from_json(asdict(stats))
        assert rebuilt == stats
