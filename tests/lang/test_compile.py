"""Unit tests for compile-once term evaluation (:mod:`repro.lang.compile`)."""

import pytest

from repro.lang.builders import (
    add,
    and_,
    apply_fn,
    bool_var,
    eq,
    ge,
    int_const,
    int_var,
    ite,
    le,
    lt,
    mul,
    not_,
    or_,
    sub,
    var,
)
from repro.lang.compile import (
    MAX_COMPILED_HEIGHT,
    CompiledTerm,
    compile_spec,
    compile_term,
)
from repro.lang.evaluator import EvaluationError, evaluate
from repro.lang.sorts import INT

x, y = int_var("x"), int_var("y")
p = bool_var("p")


class TestCompiledTerm:
    def test_arithmetic_matches_walker(self):
        term = add(mul(x, 3), sub(y, 2))
        compiled = compile_term(term)
        assert compiled.compiled
        for env in ({"x": 0, "y": 0}, {"x": -4, "y": 7}, {"x": 100, "y": -1}):
            assert compiled.eval(env) == evaluate(term, env)

    def test_positional_convention_is_sorted_names_by_default(self):
        term = sub(x, y)
        compiled = compile_term(term)
        assert compiled.variables == ("x", "y")
        assert compiled(10, 4) == 6

    def test_explicit_variable_order(self):
        term = sub(x, y)
        compiled = compile_term(term, variables=("y", "x"))
        assert compiled(4, 10) == 6

    def test_global_cache_returns_identical_object(self):
        term = add(x, 1)
        assert compile_term(term) is compile_term(term)

    def test_lazy_ite_ignores_missing_branch_variable(self):
        term = ite(ge(x, 0), x, y)
        compiled = compile_term(term)
        # y missing but unreached: parity with the lazy walker.
        assert compiled.eval({"x": 5}) == 5
        with pytest.raises(EvaluationError):
            compiled.eval({"x": -5})

    def test_lazy_connectives(self):
        term = or_(ge(x, 0), ge(y, 0))
        compiled = compile_term(term)
        assert compiled.eval({"x": 1}) is True
        with pytest.raises(EvaluationError):
            compiled.eval({"x": -1})
        term2 = and_(lt(x, 0), lt(y, 0))
        assert compile_term(term2).eval({"x": 3}) is False

    def test_connective_results_are_bool(self):
        compiled = compile_term(and_(p, eq(x, 1)))
        assert compiled.eval({"p": True, "x": 1}) is True
        assert compiled.eval({"p": True, "x": 0}) is False

    def test_non_identifier_variable_names(self):
        weird = var("x!", INT)
        compiled = compile_term(add(weird, 1))
        assert compiled.compiled
        assert compiled.eval({"x!": 41}) == 42

    def test_interpreted_function(self):
        param = int_var("a")
        funcs = {"double": ((param,), add(param, param))}
        term = apply_fn("double", [add(x, 1)], INT)
        compiled = compile_term(term, funcs=funcs)
        assert compiled.compiled
        assert compiled.eval({"x": 20}) == 42

    def test_recursive_interpreted_function(self):
        n = int_var("n")
        body = ite(
            le(n, 0), int_const(0), add(n, apply_fn("tri", [sub(n, 1)], INT))
        )
        funcs = {"tri": ((n,), body)}
        term = apply_fn("tri", [x], INT)
        compiled = compile_term(term, funcs=funcs)
        assert compiled.eval({"x": 5}) == 15 == evaluate(term, {"x": 5}, funcs)

    def test_undefined_function_raises(self):
        term = apply_fn("nope", [x], INT)
        compiled = compile_term(term)
        with pytest.raises(EvaluationError, match="undefined function"):
            compiled.eval({"x": 1})

    def test_arity_mismatch_raises(self):
        param = int_var("a")
        funcs = {"id": ((param,), param)}
        term = apply_fn("id", [x, y], INT)
        compiled = compile_term(term, funcs=funcs)
        with pytest.raises(EvaluationError, match="arity mismatch"):
            compiled.eval({"x": 1, "y": 2})

    def test_oversized_term_falls_back_to_walker(self):
        # sub (binary, never flattened) builds genuinely deep nesting.
        term = x
        for i in range(MAX_COMPILED_HEIGHT + 8):
            term = sub(term, int_const(i))
        compiled = compile_term(term)
        assert not compiled.compiled
        assert compiled.eval({"x": 0}) == evaluate(term, {"x": 0})

    def test_uncompiled_call_uses_walker(self):
        term = add(x, 1)
        shim = CompiledTerm(term, ("x",), None, {})
        assert shim(5) == 6
        assert shim.eval({"x": 5}) == 6


class TestCompiledSpec:
    def test_open_function_dispatch(self):
        spec = eq(apply_fn("f", [x], INT), mul(x, 2))
        compiled = compile_spec(spec, "f", ("x",))
        assert compiled.compiled
        assert compiled.try_eval(lambda v: v * 2, {"x": 7}) is True
        assert compiled.try_eval(lambda v: v + 1, {"x": 7}) is False

    def test_missing_variable_returns_none(self):
        spec = eq(apply_fn("f", [x], INT), y)
        compiled = compile_spec(spec, "f", ("x", "y"))
        assert compiled.try_eval(lambda v: v, {"x": 1}) is None

    def test_spec_with_interpreted_defs(self):
        a = int_var("a")
        funcs = {"inc": ((a,), add(a, 1))}
        spec = eq(apply_fn("f", [x], INT), apply_fn("inc", [x], INT))
        compiled = compile_spec(spec, "f", ("x",), funcs=funcs)
        assert compiled.try_eval(lambda v: v + 1, {"x": 3}) is True

    def test_cache_identity(self):
        spec = not_(lt(apply_fn("f", [x], INT), 0))
        assert compile_spec(spec, "f", ("x",)) is compile_spec(
            spec, "f", ("x",)
        )
