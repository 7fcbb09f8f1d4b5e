"""Tests for the integer (branch-and-bound) layer, with brute-force oracles."""

import itertools

from hypothesis import assume, given, settings, strategies as st

from repro.smt.branch_bound import BudgetExceeded, check_lia
from repro.smt.linear import LinExpr
from repro.smt.simplex import Simplex


def _holds(constraints, env):
    return all(expr.evaluate(env) >= 0 for expr, _ in constraints)


def _brute_force(constraints, names, radius=10):
    for values in itertools.product(range(-radius, radius + 1), repeat=len(names)):
        env = dict(zip(names, values))
        if _holds(constraints, env):
            return True
    return False


class TestBasics:
    def test_empty_is_sat(self):
        feasible, model = check_lia([])
        assert feasible and model == {}

    def test_trivially_false_constant(self):
        feasible, core = check_lia([(LinExpr({}, -1), "bad")])
        assert not feasible and core == ["bad"]

    def test_simple_window(self):
        constraints = [
            (LinExpr({"x": 1}, -3), "lo"),  # x >= 3
            (LinExpr({"x": -1}, 5), "hi"),  # x <= 5
        ]
        feasible, model = check_lia(constraints)
        assert feasible and 3 <= model["x"] <= 5

    def test_integer_gap_unsat(self):
        # 3x >= 1 and 3x <= 2: rationally feasible, integrally not.
        constraints = [
            (LinExpr({"x": 3}, -1), "lo"),
            (LinExpr({"x": -3}, 2), "hi"),
        ]
        feasible, core = check_lia(constraints)
        assert not feasible
        assert set(core) == {"lo", "hi"}

    def test_multi_variable_model(self):
        constraints = [
            (LinExpr({"x": 1, "y": 1}, -10), "sum"),  # x + y >= 10
            (LinExpr({"x": -1}, 4), "xcap"),  # x <= 4
            (LinExpr({"y": -1}, 7), "ycap"),  # y <= 7
        ]
        feasible, model = check_lia(constraints)
        assert feasible
        assert model["x"] + model["y"] >= 10
        assert model["x"] <= 4 and model["y"] <= 7

    def test_unsat_core_is_jointly_infeasible(self):
        constraints = [
            (LinExpr({"x": 1, "y": 1}, -10), "sum"),
            (LinExpr({"x": -1}, 4), "xcap"),
            (LinExpr({"y": -1}, 4), "ycap"),
            (LinExpr({"x": 1}, 0), "irrelevant"),  # x >= 0 (not needed)
        ]
        feasible, core = check_lia(constraints)
        assert not feasible
        assert {"sum", "xcap", "ycap"} <= set(core)

    def test_parity_gap(self):
        # 2x = 7 is integrally unsat.
        constraints = [
            (LinExpr({"x": 2}, -7), "lo"),
            (LinExpr({"x": -2}, 7), "hi"),
        ]
        feasible, _ = check_lia(constraints)
        assert not feasible

    def test_diophantine_combination(self):
        # 2x + 3y = 1 has integer solutions.
        constraints = [
            (LinExpr({"x": 2, "y": 3}, -1), "lo"),
            (LinExpr({"x": -2, "y": -3}, 1), "hi"),
        ]
        feasible, model = check_lia(constraints)
        assert feasible
        assert 2 * model["x"] + 3 * model["y"] == 1


_small_expr = st.builds(
    LinExpr,
    st.dictionaries(st.sampled_from(["x", "y"]), st.integers(-4, 4), max_size=2),
    st.integers(-8, 8),
)


@given(st.lists(st.tuples(_small_expr, st.integers()), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_check_lia_agrees_with_brute_force(raw_constraints):
    constraints = [
        (expr, f"c{i}") for i, (expr, _) in enumerate(raw_constraints)
    ]
    try:
        feasible, payload = check_lia(constraints, max_nodes=3000)
    except BudgetExceeded:
        assume(False)  # skip adversarially slow instances
        return
    expected = _brute_force(constraints, ["x", "y"])
    if feasible:
        env = {name: payload.get(name, 0) for name in ("x", "y")}
        assert _holds(constraints, env)
    else:
        assert not expected, f"solver said unsat, brute force found a model"
        # The reported core must itself be infeasible (within the box).
        by_tag = dict((tag, expr) for expr, tag in constraints)
        core_constraints = [(by_tag[tag], tag) for tag in payload]
        assert not _brute_force(core_constraints, ["x", "y"])


_names3 = ["x", "y", "z"]
_wide_coeff = st.sampled_from([-7, -6, -5, -4, -3, -2, 2, 3, 4, 5, 6, 7])


@st.composite
def _branching_constraints(draw):
    """Two to four constraints over two or three of x, y, z, each optionally
    paired with its reverse to form a band ``0 <= e <= w`` of width 0 to 2.
    Coefficients of magnitude 2 or more and thin bands put the LP vertices
    off the integer lattice, so the search must branch."""
    constraints = []
    for index in range(draw(st.integers(2, 4))):
        coeffs = draw(st.dictionaries(
            st.sampled_from(_names3), _wide_coeff, min_size=2
        ))
        const = draw(st.integers(-20, 20))
        constraints.append((LinExpr(coeffs, const), f"c{index}"))
        if draw(st.booleans()):
            width = draw(st.integers(0, 2))
            negated = {name: -coeff for name, coeff in coeffs.items()}
            constraints.append((LinExpr(negated, width - const), f"c{index}-band"))
    return constraints


def test_deep_branching_agrees_with_brute_force(monkeypatch):
    """Three variables: models hold, unsat agrees with brute force, every
    core is jointly infeasible, and a real share of draws branches."""
    checks = [0]
    original_check = Simplex.check

    def counting_check(self):
        checks[0] += 1
        return original_check(self)

    monkeypatch.setattr(Simplex, "check", counting_check)
    nodes_per_draw = []

    @given(_branching_constraints())
    @settings(max_examples=150, deadline=None, database=None)
    def agrees(constraints):
        checks[0] = 0
        try:
            feasible, payload = check_lia(constraints, max_nodes=400)
        except BudgetExceeded:
            assume(False)
            return
        nodes_per_draw.append(checks[0])
        if feasible:
            assert _holds(constraints, {n: payload.get(n, 0) for n in _names3})
            return
        assert not _brute_force(constraints, _names3)
        by_tag = {tag: expr for expr, tag in constraints}
        assert not _brute_force([(by_tag[t], t) for t in payload], _names3)

    agrees()
    deep = sum(1 for nodes in nodes_per_draw if nodes >= 3)
    assert deep * 4 >= len(nodes_per_draw), (deep, len(nodes_per_draw))


class TestBudgets:
    def test_node_budget_exhaustion_raises(self):
        import pytest

        from repro.smt.branch_bound import BudgetExceeded

        constraints = [
            (LinExpr({"x": 1, "y": 1}, -10), "sum"),
            (LinExpr({"x": -2, "y": 3}, 1), "c2"),
            (LinExpr({"x": 3, "y": -2}, 1), "c3"),
        ]
        with pytest.raises(BudgetExceeded):
            check_lia(constraints, max_nodes=0)

    def test_deadline_raises(self):
        import time

        import pytest

        from repro.smt.branch_bound import BudgetExceeded, check_lia as check

        constraints = [(LinExpr({"x": 3}, -1), "lo"), (LinExpr({"x": -3}, 2), "hi")]
        with pytest.raises(BudgetExceeded):
            check(constraints, max_nodes=100000, deadline=time.monotonic() - 1)

    def test_duplicate_linear_forms_share_slacks(self):
        # The same multi-variable form used twice must not blow up the
        # tableau (exercises the slack cache).
        constraints = [
            (LinExpr({"x": 1, "y": 1}, -4), "a"),   # x + y >= 4
            (LinExpr({"x": 1, "y": 1}, -7), "b"),   # x + y >= 7 (stronger)
            (LinExpr({"x": -1, "y": -1}, 9), "c"),  # x + y <= 9
        ]
        feasible, model = check_lia(constraints)
        assert feasible
        assert 7 <= model["x"] + model["y"] <= 9
