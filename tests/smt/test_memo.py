"""Semantic SMT query memoization (:mod:`repro.smt.memo`)."""

import pytest

from repro import obs
from repro.lang import (
    add,
    and_,
    bool_var,
    eq,
    ge,
    int_var,
    le,
    lt,
    or_,
)
from repro.lang.builders import apply_fn
from repro.lang.sorts import BOOL
from repro.smt import SmtSolver, SolverBudgetExceeded, Status
from repro.smt import capture
from repro.smt import memo as smt_memo

x, y = int_var("x"), int_var("y")
p, q = bool_var("p"), bool_var("q")


def _sat_formula():
    return and_(ge(add(x, y), 5), le(x, 3), le(y, 4))


class TestQueryMemoHits:
    def test_duplicate_query_across_fresh_solvers_hits(self):
        memo = smt_memo.QueryMemo()
        first = SmtSolver(memo=memo)
        first.add(_sat_formula())
        result = first.solve()
        assert result.status is Status.SAT
        assert memo.stats() == {"hits": 0, "misses": 1, "entries": 1}

        second = SmtSolver(memo=memo)
        second.add(_sat_formula())
        cached = second.solve()
        assert cached.status is Status.SAT
        assert cached.model == result.model
        assert memo.hits == 1
        # A hit still counts as a check for the solver's own stats.
        assert second.stats.checks == 1

    def test_hit_model_is_a_copy(self):
        memo = smt_memo.QueryMemo()
        solver = SmtSolver(memo=memo)
        solver.add(_sat_formula())
        solver.solve()

        again = SmtSolver(memo=memo)
        again.add(_sat_formula())
        hit = again.solve()
        hit.model["x"] = 10**9  # caller mutation must not poison the store

        third = SmtSolver(memo=memo)
        third.add(_sat_formula())
        assert third.solve().model["x"] != 10**9

    def test_unsat_with_assumption_core_is_cached(self):
        memo = smt_memo.QueryMemo()
        solver = SmtSolver(memo=memo)
        solver.add(ge(x, 5))
        assumptions = (lt(x, 0),)
        result = solver.solve(assumptions)
        assert result.status is Status.UNSAT
        assert result.unsat_core == assumptions

        again = SmtSolver(memo=memo)
        again.add(ge(x, 5))
        hit = again.solve(assumptions)
        assert memo.hits == 1
        assert hit.status is Status.UNSAT
        assert hit.unsat_core == assumptions

    def test_different_assumptions_are_different_queries(self):
        memo = smt_memo.QueryMemo()
        solver = SmtSolver(memo=memo)
        solver.add(or_(p, q))
        assert solver.solve((p,)).status is Status.SAT
        assert solver.solve((q,)).status is Status.SAT
        assert memo.hits == 0
        assert memo.misses == 2

    def test_incremental_adds_change_the_fingerprint(self):
        memo = smt_memo.QueryMemo()
        solver = SmtSolver(memo=memo)
        solver.add(ge(x, 0))
        assert solver.solve().status is Status.SAT
        solver.add(lt(x, 0))
        assert solver.solve().status is Status.UNSAT
        assert memo.hits == 0

        # A fresh solver replaying the same growth pattern hits both.
        replay = SmtSolver(memo=memo)
        replay.add(ge(x, 0))
        assert replay.solve().status is Status.SAT
        replay.add(lt(x, 0))
        assert replay.solve().status is Status.UNSAT
        assert memo.hits == 2


class TestQueryMemoSoundness:
    def test_sort_distinct_queries_do_not_collide(self):
        # (= x y) over Ints and over Bools render identically; interned terms
        # carry their sorts, so the two queries get distinct keys.
        memo = smt_memo.QueryMemo()
        for left, right in ((x, y), (bool_var("x"), bool_var("y"))):
            solver = SmtSolver(memo=memo)
            solver.add(eq(left, right))
            assert solver.solve().status is Status.SAT
        assert (memo.hits, memo.misses) == (0, 2)

    def test_budget_abort_is_not_cached(self):
        memo = smt_memo.QueryMemo()
        solver = SmtSolver(max_rounds=1, memo=memo)
        # Needs >1 DPLL(T) round: the SAT core proposes, theory refutes.
        solver.add(and_(or_(ge(x, 5), le(x, -5)), ge(x, 0), le(x, 3)))
        with pytest.raises(SolverBudgetExceeded):
            solver.solve()
        assert len(memo) == 0

        retry = SmtSolver(memo=memo)
        retry.add(and_(or_(ge(x, 5), le(x, -5)), ge(x, 0), le(x, 3)))
        assert retry.solve().status is Status.UNSAT

    def test_capture_mode_bypasses_memo(self, tmp_path):
        memo = smt_memo.QueryMemo()
        warm = SmtSolver(memo=memo)
        warm.add(_sat_formula())
        warm.solve()
        with capture.capturing(str(tmp_path), "memo-bypass"):
            captured = SmtSolver(memo=memo)
            captured.add(_sat_formula())
            assert captured.solve().status is Status.SAT
        assert memo.hits == 0  # the corpus reflects a real solve
        files = capture.corpus_files(str(tmp_path))
        assert len(files) == 1

    def test_memo_none_disables(self):
        solver = SmtSolver(memo=None)
        solver.add(_sat_formula())
        assert solver.solve().status is Status.SAT
        assert len(smt_memo.default_memo()) == 0

    def test_only_decided_statuses_store(self):
        from repro.smt.solver import Result

        memo = smt_memo.QueryMemo()
        memo.store(b"k", Result(Status.UNKNOWN, None, 0))
        assert len(memo) == 0


def _sat_state(solver):
    """The solver's SAT-side state: atoms, Bool variables, clause database."""
    encoder = solver._encoder
    return (
        dict(encoder.atom_vars),
        dict(encoder.bool_vars),
        encoder.sat.num_vars,
        [None if clause is None else list(clause) for clause in encoder.sat._clauses],
    )


class TestMemoBeforeEncoding:
    def test_hit_encodes_nothing(self):
        memo = smt_memo.QueryMemo()
        warm = SmtSolver(memo=memo)
        warm.add(_sat_formula())
        warm.solve()

        hitting = SmtSolver(memo=memo)
        hitting.add(_sat_formula())
        assert hitting.solve().status is Status.SAT
        assert memo.hits == 1
        assert hitting._encoder.sat.num_vars == 0
        assert hitting._encoder.asserted == []

    def test_miss_after_hit_reaches_the_unmemoized_sat_state(self):
        f1, f2 = _sat_formula(), or_(p, ge(x, 4))
        memo = smt_memo.QueryMemo()
        warm = SmtSolver(memo=memo)
        warm.add(f1)
        warm.solve()

        memoized = SmtSolver(memo=memo)
        memoized.add(f1)
        memoized.solve()  # a hit: nothing is encoded yet
        memoized.add(f2)
        assert memoized.solve().status is Status.SAT  # a miss
        assert (memo.hits, memo.misses) == (1, 2)

        plain = SmtSolver(memo=None)
        plain.add(f1)
        plain.add(f2)
        assert plain.solve().status is Status.SAT
        assert _sat_state(memoized) == _sat_state(plain)

    def test_encoding_error_surfaces_from_solve(self):
        solver = SmtSolver(memo=smt_memo.QueryMemo())
        solver.add(ge(x, 0))
        solver.add(and_(ge(x, 1), apply_fn("g", [x], BOOL)))  # recorded only
        with pytest.raises(ValueError, match="function application"):
            solver.solve()


class TestMemoHousekeeping:
    def test_lru_eviction(self):
        memo = smt_memo.QueryMemo(capacity=2)
        from repro.smt.solver import Result

        memo.store(b"a", Result(Status.SAT, {"x": 1}, 1))
        memo.store(b"b", Result(Status.SAT, {"x": 2}, 1))
        assert memo.lookup(b"a") is not None  # touch: a is now most recent
        memo.store(b"c", Result(Status.SAT, {"x": 3}, 1))
        assert memo.lookup(b"b") is None  # b was least recently used
        assert memo.lookup(b"a") is not None
        assert memo.lookup(b"c") is not None

    def test_default_solver_uses_process_memo(self):
        first = SmtSolver()
        first.add(_sat_formula())
        first.solve()
        second = SmtSolver()
        second.add(_sat_formula())
        second.solve()
        assert smt_memo.default_memo().hits >= 1

    def test_metrics_counters_mirror_hits_and_misses(self):
        with obs.recording() as recorder:
            memo = smt_memo.QueryMemo()
            solver = SmtSolver(memo=memo)
            solver.add(_sat_formula())
            solver.solve()
            again = SmtSolver(memo=memo)
            again.add(_sat_formula())
            again.solve()
            assert recorder.metrics.counter("smt.memo_hits").value >= 1
            assert recorder.metrics.counter("smt.memo_misses").value >= 1
