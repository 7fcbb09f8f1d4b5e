"""Assumption solving and unsat cores at the SMT level.

Also pins the ``_minimize_core`` deadline-forwarding bugfix with a regression
test that fails on the pre-fix code.
"""

import time

import pytest

from repro.lang import (
    add,
    and_,
    bool_const,
    bool_var,
    eq,
    evaluate,
    ge,
    implies,
    le,
    lt,
    int_var,
    not_,
    or_,
)
from repro.lang.traversal import free_vars
from repro.smt import SmtSolver, Status

x, y = int_var("x"), int_var("y")
p, q = bool_var("p"), bool_var("q")


class TestSolveUnderAssumptions:
    def test_sat_with_assumptions(self):
        solver = SmtSolver()
        solver.add(ge(x, 0))
        result = solver.solve(assumptions=[ge(x, 10), le(x, 12)])
        assert result.is_sat
        assert 10 <= result.model["x"] <= 12

    def test_assumptions_not_retained(self):
        solver = SmtSolver()
        solver.add(ge(x, 0))
        assert solver.solve(assumptions=[lt(x, 0)]).is_unsat
        # The assumption died with the call.
        assert solver.solve().is_sat
        assert solver.solve(assumptions=[ge(x, 5)]).is_sat

    def test_unsat_core_identifies_guilty_assumptions(self):
        solver = SmtSolver()
        solver.add(ge(x, 0))
        bound = le(x, 3)
        unrelated = ge(y, 100)
        result = solver.solve(assumptions=[unrelated, bound, ge(x, 7)])
        assert result.is_unsat
        assert bound in result.unsat_core
        assert unrelated not in result.unsat_core

    def test_core_reproduces_unsat(self):
        solver = SmtSolver()
        solver.add(ge(add(x, y), 10))
        assumptions = [le(x, 2), le(y, 2), ge(y, -100)]
        result = solver.solve(assumptions=assumptions)
        assert result.is_unsat
        assert result.unsat_core
        assert solver.solve(assumptions=list(result.unsat_core)).is_unsat

    def test_assertion_level_unsat_gives_empty_core(self):
        solver = SmtSolver()
        solver.add(ge(x, 1))
        solver.add(le(x, 0))
        result = solver.solve(assumptions=[ge(y, 0)])
        assert result.is_unsat
        assert result.unsat_core == ()

    def test_boolean_assumptions(self):
        solver = SmtSolver()
        solver.add(implies(p, ge(x, 10)))
        solver.add(implies(q, le(x, 5)))
        assert solver.solve(assumptions=[p]).is_sat
        assert solver.solve(assumptions=[q]).is_sat
        result = solver.solve(assumptions=[p, q])
        assert result.is_unsat
        assert set(result.unsat_core) == {p, q}

    def test_constant_assumptions(self):
        solver = SmtSolver()
        solver.add(ge(x, 0))
        assert solver.solve(assumptions=[bool_const(True)]).is_sat
        result = solver.solve(assumptions=[bool_const(False)])
        assert result.is_unsat
        assert len(result.unsat_core) == 1

    def test_non_bool_assumption_rejected(self):
        solver = SmtSolver()
        with pytest.raises(ValueError):
            solver.solve(assumptions=[add(x, 1)])

    def test_model_satisfies_assumptions(self):
        solver = SmtSolver()
        solver.add(or_(ge(x, 5), le(y, -5)))
        formula = and_(lt(x, 5), ge(y, -100))
        result = solver.solve(assumptions=[formula])
        assert result.is_sat
        env = {"x": 0, "y": 0}
        env.update(result.model)
        assert evaluate(formula, env)
        assert env["y"] <= -5

    def test_lemma_reuse_across_assumption_calls(self):
        solver = SmtSolver()
        solver.add(ge(add(x, y), 10))
        first = solver.solve(assumptions=[le(x, 2), le(y, 2)])
        assert first.is_unsat
        # Second call over the same theory space: lemmas learned in the
        # first call are still in the clause database.
        lemmas_before = solver.stats.lemmas
        second = solver.solve(assumptions=[le(x, 1), le(y, 2)])
        assert second.is_unsat
        assert solver.stats.lemmas >= lemmas_before


class TestModelsStayComplete:
    """Each model names every free variable of every assertion, also one
    added after an earlier solve and not needed by the implicant."""

    def _assert_complete(self, solver, assertions, result):
        assert result.is_sat
        names = {var.payload for f in assertions for var in free_vars(f)}
        assert names <= set(result.model)
        assert all(evaluate(f, result.model) for f in assertions)

    def test_variable_only_a_later_assertion_names(self):
        solver = SmtSolver(memo=None)
        assertions = [ge(x, 0)]
        solver.add(assertions[0])
        self._assert_complete(solver, assertions, solver.solve())
        # The implicant picks the first true disjunct, so y reaches the model
        # only through the free variables of the added assertion.
        assertions.append(or_(ge(x, 0), ge(y, 5)))
        solver.add(assertions[1])
        self._assert_complete(solver, assertions, solver.solve())

    def test_bool_variable_added_between_solves(self):
        solver = SmtSolver(memo=None)
        assertions = [ge(x, 3)]
        solver.add(assertions[0])
        self._assert_complete(solver, assertions, solver.solve())
        assertions += [or_(ge(x, 3), p), implies(q, ge(y, 1))]
        for formula in assertions[1:]:
            solver.add(formula)
        result = solver.solve(assumptions=[not_(q)])
        self._assert_complete(solver, assertions, result)
        assert result.model["q"] is False
        self._assert_complete(solver, assertions, solver.solve())


class TestMinimizeCoreDeadlineRegression:
    def test_minimize_core_forwards_deadline(self, monkeypatch):
        # Regression: _minimize_core invoked check_lia with the default
        # deadline (None), so core shrinking ignored a near-expired solver
        # deadline entirely.
        import repro.smt.solver as solver_module

        seen = []
        real_check_lia = solver_module.check_lia

        def spy(constraints, max_nodes=20000, deadline=None):
            seen.append(deadline)
            return real_check_lia(constraints, max_nodes, None)

        monkeypatch.setattr(solver_module, "check_lia", spy)
        deadline = time.monotonic() + 3600
        solver = SmtSolver(deadline=deadline)
        # Call the helper directly with a 6-element core (the minimiser only
        # engages for cores of 5..24 literals).
        from repro.lang.builders import int_const
        from repro.smt.linear import term_to_linexpr

        exprs = []
        for i in range(6):
            expr = term_to_linexpr(x) - term_to_linexpr(int_const(i))
            exprs.append((expr, i + 1))
        solver._minimize_core(exprs, [i + 1 for i in range(6)])
        assert seen, "minimiser should have called check_lia"
        assert all(d == deadline for d in seen)
