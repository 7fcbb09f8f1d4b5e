"""Assumption solving, unsat cores and clause-DB reduction in the CDCL core.

Also pins two solver-loop bugfixes with regression tests that fail on the
pre-fix code: the VSIDS rescale leaving stale order-heap entries, and the
deadline only being checked on the conflict path.
"""

import random
import time

import pytest

from repro.smt.sat import SatSolver


def _pigeonhole(solver: SatSolver, pigeons: int, holes: int) -> None:
    """p_{i,j} (pigeon i in hole j) as var i*holes + j + 1; unsat iff p > h."""

    def var(i: int, j: int) -> int:
        return i * holes + j + 1

    for i in range(pigeons):
        solver.add_clause([var(i, j) for j in range(holes)])
    for j in range(holes):
        for i in range(pigeons):
            for k in range(i + 1, pigeons):
                solver.add_clause([-var(i, j), -var(k, j)])


class TestAssumptions:
    def test_sat_under_assumptions(self):
        s = SatSolver()
        s.add_clause([1, 2])
        model = s.solve(assumptions=[-1])
        assert model is not None
        assert model[1] is False and model[2] is True

    def test_assumptions_are_not_retained(self):
        s = SatSolver()
        s.add_clause([1, 2])
        assert s.solve(assumptions=[-1, -2]) is None
        # The same instance is still satisfiable without the assumptions.
        assert s.solve() is not None
        assert s.solve(assumptions=[-2]) is not None

    def test_unsat_core_is_reported(self):
        s = SatSolver()
        s.add_clause([1, 2])
        assert s.solve(assumptions=[-1, -2]) is None
        assert set(s.unsat_core) == {-1, -2}

    def test_core_excludes_irrelevant_assumptions(self):
        s = SatSolver()
        # 1 -> 2 -> 3 -> not 4; assumption 5 is unrelated.
        s.add_clause([-1, 2])
        s.add_clause([-2, 3])
        s.add_clause([-3, -4])
        assert s.solve(assumptions=[5, 1, 4]) is None
        assert set(s.unsat_core) == {1, 4}
        # The core alone reproduces the unsat answer.
        assert s.solve(assumptions=list(s.unsat_core)) is None

    def test_core_with_assumption_false_at_level_zero(self):
        s = SatSolver()
        s.add_clause([1])
        assert s.solve(assumptions=[-1]) is None
        assert s.unsat_core == [-1]
        assert s.solve() is not None

    def test_already_true_assumptions_use_dummy_levels(self):
        s = SatSolver()
        s.add_clause([1])
        s.add_clause([-2, 3])
        model = s.solve(assumptions=[1, 2])
        assert model is not None
        assert model[1] and model[2] and model[3]

    def test_unconditional_unsat_gives_empty_core(self):
        s = SatSolver()
        s.add_clause([1])
        assert not s.add_clause([-1])
        assert s.solve(assumptions=[2]) is None
        assert s.unsat_core == []

    def test_unsat_core_resets_between_solves(self):
        s = SatSolver()
        s.add_clause([1, 2])
        assert s.solve(assumptions=[-1, -2]) is None
        assert s.unsat_core
        assert s.solve(assumptions=[1]) is not None
        assert s.unsat_core == []

    def test_repeated_solves_with_rotating_assumptions(self):
        s = SatSolver()
        s.add_clause([1, 2, 3])
        for banned in ([-1, -2], [-2, -3], [-1, -3]):
            model = s.solve(assumptions=banned)
            assert model is not None
            for lit in banned:
                assert model[abs(lit)] is (lit > 0)
        assert s.solve(assumptions=[-1, -2, -3]) is None
        assert set(s.unsat_core) == {-1, -2, -3}

    def test_assumptions_on_unsat_instance_after_learning(self):
        s = SatSolver()
        _pigeonhole(s, 4, 3)
        assert s.solve() is None
        # Database-level unsat persists; assumptions cannot resurrect it.
        assert s.solve(assumptions=[1]) is None
        assert s.unsat_core == []


class TestBumpRescaleRegression:
    def test_rescale_flushes_stale_heap_entries(self):
        # Regression: a VSIDS rescale divides every activity by 1e100 but the
        # lazily-maintained order heap kept entries with pre-rescale keys,
        # which then dominated every later decision.
        s = SatSolver()
        s.new_var()
        s.new_var()
        s._var_inc = 2e100
        s._bump(1)  # triggers the rescale; var 1 activity becomes 2.0
        s._var_inc = 2.0
        s._bump(2)
        s._bump(2)  # var 2 activity 4.0 > var 1's 2.0
        assert abs(s._decide()) == 2

    def test_rescale_keeps_relative_order(self):
        s = SatSolver()
        for _ in range(3):
            s.new_var()
        s._bump(3)
        s._var_inc = 2e100
        s._bump(2)  # rescale fires here
        # Post-rescale activities: var2 = 2.0 dominates var3's tiny value.
        assert abs(s._decide()) == 2


class TestDecisionPathDeadlineRegression:
    def test_deadline_enforced_without_conflicts(self):
        # Regression: the deadline was only checked every 256 conflicts, so a
        # conflict-free (pure decision/propagation) search ran unbounded.
        s = SatSolver()
        for _ in range(600):
            s.new_var()
        s.deadline = time.monotonic() - 1.0
        with pytest.raises(SatSolver.Interrupted):
            s.solve()

    def test_no_deadline_still_solves(self):
        s = SatSolver()
        for _ in range(600):
            s.new_var()
        assert s.solve() is not None


class TestClauseDbReduction:
    def test_reduction_triggers_and_counts(self):
        s = SatSolver()
        _pigeonhole(s, 6, 5)
        s._max_learnts = 8.0
        assert s.solve() is None
        assert s.num_learnts_deleted > 0

    def test_deleted_slots_are_none_and_watches_lazy(self):
        s = SatSolver()
        _pigeonhole(s, 6, 5)
        s._max_learnts = 8.0
        s.solve()
        live = [c for c in s._clauses if c is not None]
        dead = [c for c in s._clauses if c is None]
        assert dead, "reduction should have nulled some clause slots"
        assert all(isinstance(c, list) and len(c) >= 2 for c in live)
        # Every surviving learnt index must point at a live clause.
        for ci in s._learnts:
            assert s._clauses[ci] is not None

    def test_reduction_keeps_binary_and_glue_clauses(self):
        s = SatSolver()
        _pigeonhole(s, 6, 5)
        s._max_learnts = 8.0
        reduce_db = s._reduce_db
        totals = {"reductions": 0, "deleted": 0, "protected": 0}

        def checked_reduce_db():
            # Called at level 0, so the trail holds only level-0 literals.
            locked = {s._reason[abs(lit)] for lit in s._trail}
            before = list(s._clauses)
            lbd = dict(s._lbd)
            protected = [
                ci
                for ci in s._learnts
                if len(before[ci]) == 2 or lbd[ci] <= 3
            ]
            reduce_db()
            deleted = [
                ci
                for ci, clause in enumerate(before)
                if clause is not None and s._clauses[ci] is None
            ]
            for ci in deleted:
                assert ci not in s._learnts and ci in lbd  # a learnt clause
                assert len(before[ci]) > 2 and lbd[ci] > 3
                assert ci not in locked
            # Binary and glue learnt clauses are never deleted.
            for ci in protected:
                assert ci in s._learnts and s._clauses[ci] is not None
            totals["reductions"] += 1
            totals["deleted"] += len(deleted)
            totals["protected"] += len(protected)

        s._reduce_db = checked_reduce_db
        assert s.solve() is None
        assert totals["deleted"] == s.num_learnts_deleted
        assert totals == {"reductions": 2, "deleted": 59, "protected": 50}

    def test_answers_match_unreduced_solver_on_random_cnf(self):
        rng = random.Random(20260805)
        for round_index in range(4):
            num_vars = 40
            clauses = [
                [
                    v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, num_vars + 1), 3)
                ]
                for _ in range(int(num_vars * 4.2))
            ]
            reduced = SatSolver()
            reduced._max_learnts = 4.0
            plain = SatSolver()
            for clause in clauses:
                reduced.add_clause(list(clause))
                plain.add_clause(list(clause))
            got = reduced.solve()
            want = plain.solve()
            assert (got is None) == (want is None)
            if got is not None:
                for clause in clauses:
                    assert any(got[abs(l)] is (l > 0) for l in clause)

    def test_incremental_use_after_reduction(self):
        s = SatSolver()
        _pigeonhole(s, 5, 4)
        s._max_learnts = 6.0
        assert s.solve() is None  # pigeonhole core is unsat
        # The instance-level unsat makes the solver permanently unsat; a
        # fresh solver sharing only the satisfiable half still works after
        # its own reductions.
        s2 = SatSolver()
        _pigeonhole(s2, 5, 5)  # satisfiable: one hole each
        s2._max_learnts = 6.0
        model = s2.solve()
        assert model is not None
