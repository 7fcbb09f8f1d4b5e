"""Tests for the SyGuS-IF parser."""

import pytest

from repro.lang import Kind, and_, eq, evaluate, ge, gt, int_var, le, lt
from repro.lang.sorts import BOOL, INT
from repro.sygus.parser import SygusParseError, parse_sygus_text

X, Y = int_var("x"), int_var("y")

MAX2_NO_GRAMMAR = """
(set-logic LIA)
(synth-fun max2 ((x Int) (y Int)) Int)
(declare-var x Int)
(declare-var y Int)
(constraint (>= (max2 x y) x))
(constraint (>= (max2 x y) y))
(constraint (or (= (max2 x y) x) (= (max2 x y) y)))
(check-synth)
"""

MAX2_WITH_GRAMMAR_V1 = """
(set-logic LIA)
(synth-fun max2 ((x Int) (y Int)) Int
  ((Start Int (x y 0 1 (+ Start Start) (- Start Start)
               (ite StartBool Start Start)))
   (StartBool Bool ((and StartBool StartBool) (not StartBool)
                    (<= Start Start) (>= Start Start)))))
(declare-var x Int)
(declare-var y Int)
(constraint (>= (max2 x y) x))
(constraint (>= (max2 x y) y))
(constraint (or (= (max2 x y) x) (= (max2 x y) y)))
(check-synth)
"""

MAX2_WITH_GRAMMAR_V2 = """
(set-logic LIA)
(synth-fun max2 ((x Int) (y Int)) Int
  ((Start Int) (StartBool Bool))
  ((Start Int (x y (Constant Int) (+ Start Start) (ite StartBool Start Start)))
   (StartBool Bool ((>= Start Start)))))
(declare-var x Int)
(declare-var y Int)
(constraint (>= (max2 x y) x))
(check-synth)
"""

INV_PROBLEM = """
(set-logic LIA)
(synth-inv inv_fun ((x Int)))
(define-fun pre_fun ((x Int)) Bool (= x 0))
(define-fun trans_fun ((x Int) (x! Int)) Bool (= x! (ite (< x 100) (+ x 1) x)))
(define-fun post_fun ((x Int)) Bool (=> (not (< x 100)) (= x 100)))
(inv-constraint inv_fun pre_fun trans_fun post_fun)
(check-synth)
"""

WITH_DEFINE_FUN = """
(set-logic LIA)
(define-fun double ((a Int)) Int (+ a a))
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(constraint (= (f x) (double (double x))))
(check-synth)
"""


class TestBasicParsing:
    def test_default_grammar_problem(self):
        problem = parse_sygus_text(MAX2_NO_GRAMMAR, name="max2")
        assert problem.fun_name == "max2"
        assert problem.track == "CLIA"
        assert len(problem.synth_fun.params) == 2
        assert problem.synth_fun.return_sort is INT
        assert problem.spec.kind is Kind.AND

    def test_v1_grammar(self):
        problem = parse_sygus_text(MAX2_WITH_GRAMMAR_V1)
        assert problem.track == "General"
        grammar = problem.synth_fun.grammar
        assert grammar.start == "Start"
        assert grammar.nonterminals == {"Start": INT, "StartBool": BOOL}
        from repro.lang import int_var, ite, ge

        x, y = int_var("x"), int_var("y")
        assert grammar.generates(ite(ge(x, y), x, y))

    def test_v2_grammar(self):
        problem = parse_sygus_text(MAX2_WITH_GRAMMAR_V2)
        grammar = problem.synth_fun.grammar
        from repro.lang import int_const

        assert grammar.generates(int_const(17))  # via (Constant Int)

    def test_solution_round_trip(self):
        from repro.lang import int_var, ite, ge

        problem = parse_sygus_text(MAX2_NO_GRAMMAR)
        x, y = int_var("x"), int_var("y")
        ok, _ = problem.verify(ite(ge(x, y), x, y))
        assert ok


class TestInvTrack:
    def test_inv_constraint_expansion(self):
        problem = parse_sygus_text(INV_PROBLEM)
        assert problem.track == "INV"
        assert problem.invariant is not None
        assert problem.synth_fun.return_sort is BOOL
        assert len(problem.invocations()) == 2

    def test_invariant_components(self):
        problem = parse_sygus_text(INV_PROBLEM)
        inv = problem.invariant
        assert evaluate(inv.pre, {"x": 0}) is True
        assert evaluate(inv.pre, {"x": 1}) is False
        assert evaluate(inv.post, {"x": 100}) is True
        assert evaluate(inv.post, {"x": 101}) is False
        assert evaluate(inv.trans, {"x": 3, "x!": 4}) is True
        assert evaluate(inv.trans, {"x": 3, "x!": 5}) is False

    def test_known_invariant_verifies(self):
        from repro.lang import and_, ge, le, int_var

        problem = parse_sygus_text(INV_PROBLEM)
        x = int_var("x")
        ok, _ = problem.verify(and_(ge(x, 0), le(x, 100)))
        assert ok


class TestDefineFun:
    def test_macros_inlined(self):
        problem = parse_sygus_text(WITH_DEFINE_FUN)
        from repro.lang.traversal import contains_app

        assert not contains_app(problem.spec, "double")
        # f(x) = double(double(x)) = 4x; check with the solution x+x+x+x.
        from repro.lang import add, int_var

        x = int_var("x")
        ok, _ = problem.verify(add(x, x, x, x))
        assert ok


class TestErrors:
    def test_let_rejected(self):
        text = """
        (set-logic LIA)
        (synth-fun f ((x Int)) Int)
        (declare-var x Int)
        (constraint (= (f x) (let ((y 1)) (+ x y))))
        """
        with pytest.raises(SygusParseError):
            parse_sygus_text(text)

    def test_unknown_symbol_rejected(self):
        text = """
        (set-logic LIA)
        (synth-fun f ((x Int)) Int)
        (constraint (= (f nonexistent) 0))
        """
        with pytest.raises(SygusParseError):
            parse_sygus_text(text)

    def test_missing_synth_fun_rejected(self):
        with pytest.raises(SygusParseError):
            parse_sygus_text("(set-logic LIA) (check-synth)")

    def test_unsupported_command_rejected(self):
        with pytest.raises(SygusParseError):
            parse_sygus_text("(synth-fun f ((x Int)) Int) (pop 1)")

    def test_unsupported_sort_rejected(self):
        with pytest.raises(SygusParseError):
            parse_sygus_text("(synth-fun f ((x Real)) Real)")

    # Only ``-?[0-9]+`` is a numeral.  Other digit strings must reach the
    # symbol lookup and its error, not ``int()``, which raises a bare
    # ValueError on ``--5`` and ``²`` and reads ``٣`` as 3.
    @pytest.mark.parametrize(
        "token",
        ["--5", "\u00b2", "\u0663"],
        ids=["double-minus", "superscript-two", "arabic-indic-three"],
    )
    def test_non_ascii_or_doubly_negated_digits_are_unknown_symbols(self, token):
        text = f"""
        (set-logic LIA)
        (synth-fun f ((x Int)) Int)
        (declare-var x Int)
        (constraint (>= (f x) {token}))
        """
        with pytest.raises(SygusParseError, match="unknown symbol"):
            parse_sygus_text(text)

    def test_ascii_numerals_still_parse(self):
        text = """
        (set-logic LIA)
        (synth-fun f ((x Int)) Int)
        (declare-var x Int)
        (constraint (>= (f x) -12))
        (constraint (>= (f x) 007))
        """
        problem = parse_sygus_text(text)
        values = {c.args[1].value for c in problem.spec.args}
        assert values == {-12, 7}


def _constraint(term_text: str) -> str:
    return f"""
    (set-logic LIA)
    (synth-fun f ((x Int)) Int)
    (declare-var x Int)
    (declare-var y Int)
    (constraint {term_text})
    """


class TestOperatorArity:
    """Every built-in operator takes SMT-LIB's number of arguments: ``=``
    and the orderings chain, and any other count is a parse error."""

    @pytest.mark.parametrize(
        "op,build",
        [("=", eq), ("<", lt), ("<=", le), (">", gt), (">=", ge)],
        ids=["eq", "lt", "le", "gt", "ge"],
    )
    def test_comparisons_chain_over_adjacent_pairs(self, op, build):
        problem = parse_sygus_text(_constraint(f"({op} (f x) x y 5)"))
        fx = problem.synth_fun.apply((X,))
        assert problem.spec is and_(build(fx, X), build(X, Y), build(Y, 5))

    def test_three_argument_equality_keeps_its_last_argument(self):
        """``(= (f x) x 5)`` once read as ``f(x) = x``, dropping ``5``."""
        problem = parse_sygus_text(_constraint("(= (f x) x 5)"))
        fx = problem.synth_fun.apply((X,))
        assert problem.spec is and_(eq(fx, X), eq(X, 5))
        assert not problem.verify(X)[0]

    @pytest.mark.parametrize(
        "term_text,op,wanted,count",
        [
            ("(+ x)", "+", "at least 2 arguments", 1),
            ("(-)", "-", "at least 1 argument", 0),
            ("(* 2)", "*", "at least 2 arguments", 1),
            ("(ite (>= x 0) x)", "ite", "3 arguments", 2),
            ("(ite (>= x 0) x y 1)", "ite", "3 arguments", 4),
            ("(and (>= x 0))", "and", "at least 2 arguments", 1),
            ("(or (>= x 0))", "or", "at least 2 arguments", 1),
            ("(not (>= (f x) x) (< x 0))", "not", "1 argument", 2),
            ("(not)", "not", "1 argument", 0),
            ("(=> (>= x 0))", "=>", "at least 2 arguments", 1),
            ("(= (f x))", "=", "at least 2 arguments", 1),
            ("(>= (f x))", ">=", "at least 2 arguments", 1),
            ("(> (f x))", ">", "at least 2 arguments", 1),
            ("(<= (f x))", "<=", "at least 2 arguments", 1),
            ("(< (f x))", "<", "at least 2 arguments", 1),
        ],
    )
    def test_wrong_argument_count_is_a_parse_error(
        self, term_text, op, wanted, count
    ):
        with pytest.raises(SygusParseError) as error:
            parse_sygus_text(_constraint(term_text))
        assert str(error.value) == (
            f"operator {op!r} takes {wanted}, got {count}"
        )

    def test_grammar_productions_are_checked_too(self):
        text = """
        (set-logic LIA)
        (synth-fun f ((x Int)) Int ((Start Int (x 0 (ite Start Start)))))
        (declare-var x Int)
        (constraint (>= (f x) x))
        """
        with pytest.raises(SygusParseError, match="'ite' takes 3 arguments"):
            parse_sygus_text(text)


class TestDeclarePrimedVar:
    def test_primed_vars_declared(self):
        text = """
        (set-logic LIA)
        (synth-fun f ((x Int)) Int)
        (declare-primed-var x Int)
        (constraint (= (f x) x))
        """
        problem = parse_sygus_text(text)
        names = {v.payload for v in problem.variables}
        assert names == {"x", "x!"}
