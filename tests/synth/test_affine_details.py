"""Detailed unit tests for the affine-spine encoder internals."""

import pytest

from repro.lang import add, apply_fn, evaluate, int_const, int_var, neg, sub
from repro.lang.sorts import INT
from repro.sygus.grammar import InterpretedFunction, qm_grammar
from repro.sygus.problem import SynthFun
from repro.synth.affine_encoding import (
    AffineSpineEncoder,
    _chain_add,
    _repeat,
    affine_operator_view,
)
from repro.synth.encoding import EncodingUnsupported

x, y = int_var("x"), int_var("y")


class TestHelpers:
    def test_repeat_positive(self):
        assert _repeat(x, 3) == [x, x, x]

    def test_repeat_negative_wraps_in_neg(self):
        parts = _repeat(x, -2)
        assert len(parts) == 2
        assert all(p is neg(x) for p in parts)

    def test_repeat_zero(self):
        assert _repeat(x, 0) == []

    def test_chain_add_balances_signs(self):
        term = _chain_add([x, x, neg(y)])
        assert evaluate(term, {"x": 5, "y": 3}) == 7

    def test_chain_add_all_negative(self):
        term = _chain_add([neg(x), neg(x)])
        assert evaluate(term, {"x": 4}) == -8

    def test_chain_add_empty_positive_side(self):
        term = _chain_add([neg(y)])
        assert evaluate(term, {"y": 9}) == -9


class TestShape:
    def test_node_count_binary(self):
        fun = SynthFun("f", (x, y), INT, qm_grammar((x, y)))
        assert AffineSpineEncoder(fun, 1).num_nodes == 1
        assert AffineSpineEncoder(fun, 2).num_nodes == 3
        assert AffineSpineEncoder(fun, 3).num_nodes == 7

    def test_operator_view_lists_qm(self):
        ops = affine_operator_view(qm_grammar((x,)))
        assert ops is not None and ops[0].name == "qm"

    def test_view_rejects_grammar_without_subtraction(self):
        from repro.sygus.grammar import Grammar, nonterminal

        s = nonterminal("S", INT)
        grammar = Grammar(
            {"S": INT},
            "S",
            {"S": [x, int_const(0), int_const(1), add(s, s),
                   apply_fn("qm", (s, s), INT)]},
            {"qm": qm_grammar((x,)).interpreted["qm"]},
            (x,),
        )
        assert affine_operator_view(grammar) is None

    def test_view_rejects_grammar_without_operators(self):
        from repro.sygus.grammar import Grammar, nonterminal
        from repro.sygus.grammar import any_const

        s = nonterminal("S", INT)
        grammar = Grammar(
            {"S": INT},
            "S",
            {"S": [x, any_const(), add(s, s), sub(s, s)]},
            {},
            (x,),
        )
        assert affine_operator_view(grammar) is None

    def test_bool_return_sort_rejected(self):
        from repro.lang.sorts import BOOL

        fun = SynthFun("p", (x,), BOOL, qm_grammar((x,)))
        with pytest.raises(EncodingUnsupported):
            AffineSpineEncoder(fun, 2)


class TestStaticConstraints:
    def test_one_hot_op_selection(self):
        fun = SynthFun("f", (x, y), INT, qm_grammar((x, y)))
        encoder = AffineSpineEncoder(fun, 2, "t")
        constraints = encoder.static_constraints(2, 1)
        # Single operator: at least the weight-exclusivity clauses exist.
        from repro.lang import Kind

        assert constraints.kind is Kind.AND
