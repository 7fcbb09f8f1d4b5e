"""Tests for the decision-tree normal form (Figure 5) and interpret_h."""

from hypothesis import given, settings, strategies as st

from repro.lang import evaluate, int_var
from repro.lang.sorts import BOOL, INT
from repro.synth.decision_tree import (
    TreeShape,
    coeff_name,
    const_name,
    num_internal,
    num_nodes,
)


class TestShapeArithmetic:
    def test_node_counts(self):
        assert num_nodes(1) == 1
        assert num_nodes(2) == 3
        assert num_nodes(3) == 7
        assert num_internal(1) == 0
        assert num_internal(2) == 1
        assert num_internal(3) == 3

    def test_invalid_height(self):
        import pytest

        with pytest.raises(ValueError):
            num_nodes(0)


class TestFigure6Example:
    def test_max2_tree(self):
        """The paper's Figure 6: c0=(1,-1,0), c1=(1,0,0), c2=(0,1,0)."""
        shape = TreeShape("t", 2, 2, INT)
        model = {
            coeff_name("t", 0, 0): 1,
            coeff_name("t", 0, 1): -1,
            const_name("t", 0): 0,
            coeff_name("t", 1, 0): 1,
            coeff_name("t", 1, 1): 0,
            const_name("t", 1): 0,
            coeff_name("t", 2, 0): 0,
            coeff_name("t", 2, 1): 1,
            const_name("t", 2): 0,
        }
        x1, x2 = int_var("x1"), int_var("x2")
        body = shape.decode(model, (x1, x2))
        for a in range(-4, 5):
            for b in range(-4, 5):
                assert evaluate(body, {"x1": a, "x2": b}) == max(a, b)

    def test_interpret_on_paper_point(self):
        """interpret_2(c, (1, -2)) from Section 5.2."""
        shape = TreeShape("t", 2, 2, INT)
        symbolic = shape.interpret((1, -2))
        env = {
            coeff_name("t", 0, 0): 1,
            coeff_name("t", 0, 1): -1,
            const_name("t", 0): 0,
            coeff_name("t", 1, 0): 1,
            coeff_name("t", 1, 1): 0,
            const_name("t", 1): 0,
            coeff_name("t", 2, 0): 0,
            coeff_name("t", 2, 1): 1,
            const_name("t", 2): 0,
        }
        assert evaluate(symbolic, env) == max(1, -2)


class TestBoolTrees:
    def test_bool_leaf_is_atom(self):
        shape = TreeShape("t", 1, 1, BOOL)
        model = {coeff_name("t", 0, 0): 1, const_name("t", 0): -5}
        body = shape.decode(model, (int_var("x"),))
        assert evaluate(body, {"x": 5}) is True
        assert evaluate(body, {"x": 4}) is False

    def test_bool_internal_decision(self):
        shape = TreeShape("t", 2, 1, BOOL)
        # if x >= 0 then x <= 3 else false  (i.e. 0 <= x <= 3)
        model = {
            coeff_name("t", 0, 0): 1,
            const_name("t", 0): 0,
            coeff_name("t", 1, 0): -1,
            const_name("t", 1): 3,
            coeff_name("t", 2, 0): 0,
            const_name("t", 2): -1,
        }
        body = shape.decode(model, (int_var("x"),))
        for value in range(-5, 9):
            assert evaluate(body, {"x": value}) == (0 <= value <= 3)


# -- Property: decode and interpret agree --------------------------------------

_coeffs = st.integers(min_value=-2, max_value=2)


@given(
    st.integers(min_value=1, max_value=3),
    st.data(),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
)
@settings(max_examples=120, deadline=None)
def test_decode_interpret_consistency(height, data, point):
    """Evaluating the decoded term equals evaluating interpret_h's formula
    under the same coefficient model."""
    shape = TreeShape("t", height, 2, INT)
    model = {}
    for node in range(shape.nodes):
        for j in range(2):
            model[coeff_name("t", node, j)] = data.draw(_coeffs)
        model[const_name("t", node)] = data.draw(_coeffs)
    x1, x2 = int_var("x1"), int_var("x2")
    decoded = shape.decode(model, (x1, x2))
    direct = evaluate(decoded, {"x1": point[0], "x2": point[1]})
    symbolic = shape.interpret(point)
    indirect = evaluate(symbolic, model)
    assert direct == indirect
