"""The benchmark suite: INV / CLIA / General track families.

Each family is parameterised the way the SyGuS-Comp benchmarks are (loop
bounds, arities, grammar restrictions), so the suite spans trivial to
unsolvable-within-timeout for every solver — which is what the paper's
cactus plots and per-track counts need to reproduce their shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.lang.ast import Term
from repro.lang.builders import (
    add,
    and_,
    eq,
    ge,
    gt,
    implies,
    int_const,
    int_var,
    ite,
    le,
    lt,
    not_,
    or_,
    sub,
)
from repro.lang.sorts import BOOL, INT
from repro.sygus.grammar import (
    Grammar,
    InterpretedFunction,
    clia_grammar,
    nonterminal,
    qm_grammar,
)
from repro.sygus.problem import InvariantProblem, SygusProblem, SynthFun


@dataclass(frozen=True)
class Benchmark:
    """A named benchmark: a problem builder plus track metadata."""

    name: str
    track: str  # "INV" | "CLIA" | "General"
    build: Callable[[], SygusProblem]
    difficulty: int = 1  # 1 (trivial) .. 5 (hard)

    def problem(self) -> SygusProblem:
        return self.build()


# ---------------------------------------------------------------------------
# CLIA track
# ---------------------------------------------------------------------------


def _max_n_problem(n: int) -> SygusProblem:
    params = tuple(int_var(f"x{i}") for i in range(n))
    fun = SynthFun("f", params, INT, clia_grammar(params))
    fx = fun.apply(params)
    spec = and_(
        *(ge(fx, p) for p in params),
        or_(*(eq(fx, p) for p in params)),
    )
    return SygusProblem(fun, spec, params, track="CLIA", name=f"max{n}")


def _min_n_problem(n: int) -> SygusProblem:
    params = tuple(int_var(f"x{i}") for i in range(n))
    fun = SynthFun("f", params, INT, clia_grammar(params))
    fx = fun.apply(params)
    spec = and_(
        *(le(fx, p) for p in params),
        or_(*(eq(fx, p) for p in params)),
    )
    return SygusProblem(fun, spec, params, track="CLIA", name=f"min{n}")


def _abs_problem() -> SygusProblem:
    x = int_var("x")
    fun = SynthFun("f", (x,), INT, clia_grammar((x,)))
    fx = fun.apply((x,))
    spec = and_(ge(fx, x), ge(fx, sub(0, x)), or_(eq(fx, x), eq(fx, sub(0, x))))
    return SygusProblem(fun, spec, (x,), track="CLIA", name="abs")


def _reference_problem(name: str, params, body: Term) -> SygusProblem:
    fun = SynthFun("f", tuple(params), INT, clia_grammar(tuple(params)))
    fx = fun.apply(tuple(params))
    return SygusProblem(fun, eq(fx, body), tuple(params), track="CLIA", name=name)


def _clamp_problem() -> SygusProblem:
    x, lo, hi = int_var("x"), int_var("lo"), int_var("hi")
    body = ite(lt(x, lo), lo, ite(gt(x, hi), hi, x))
    return _reference_problem("clamp", (x, lo, hi), body)


def _array_search_problem(n: int) -> SygusProblem:
    """The classic array_search_n: index of key k in sorted y1 < ... < yn."""
    ys = tuple(int_var(f"y{i}") for i in range(1, n + 1))
    k = int_var("k")
    params = ys + (k,)
    fun = SynthFun("f", params, INT, clia_grammar(params))
    fx = fun.apply(params)
    sortedness = and_(*(lt(ys[i], ys[i + 1]) for i in range(n - 1))) if n > 1 else None
    conditions = [
        implies(lt(k, ys[0]), eq(fx, 0)),
        implies(gt(k, ys[-1]), eq(fx, n)),
    ]
    for i in range(n - 1):
        conditions.append(
            implies(and_(gt(k, ys[i]), lt(k, ys[i + 1])), eq(fx, i + 1))
        )
    spec = and_(*conditions)
    if sortedness is not None:
        spec = implies(sortedness, spec)
    return SygusProblem(fun, spec, params, track="CLIA", name=f"array_search_{n}")


def _commutative_max_problem() -> SygusProblem:
    """A multi-invocation spec (defeats single-invocation CEGQI)."""
    x, y = int_var("x"), int_var("y")
    fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
    fxy = fun.apply((x, y))
    fyx = fun.apply((y, x))
    spec = and_(
        eq(fxy, fyx),
        ge(fxy, x),
        ge(fxy, y),
        or_(eq(fxy, x), eq(fxy, y)),
    )
    return SygusProblem(fun, spec, (x, y), track="CLIA", name="max2-commutative")


def _ite_reference(name: str, n_extra: int) -> SygusProblem:
    """Conditional reference implementations of growing height."""
    x, y = int_var("x"), int_var("y")
    body: Term = ite(ge(x, y), sub(x, y), sub(y, x))  # |x - y|
    for i in range(n_extra):
        body = ite(ge(x, int_const(i)), add(body, 1), body)
    return _reference_problem(name, (x, y), body)


def _sum_guard_problem() -> SygusProblem:
    x, y = int_var("x"), int_var("y")
    body = ite(ge(add(x, y), 0), add(x, y), int_const(0))
    return _reference_problem("relu-sum", (x, y), body)


def _band_problem(width: int) -> SygusProblem:
    """Underconstrained spec: any value in a band of the given width works."""
    x = int_var("x")
    fun = SynthFun("f", (x,), INT, clia_grammar((x,)))
    fx = fun.apply((x,))
    spec = and_(ge(fx, x), le(fx, add(x, width)))
    return SygusProblem(fun, spec, (x,), track="CLIA", name=f"band-{width}")


def _signum_problem() -> SygusProblem:
    x = int_var("x")
    body = ite(gt(x, 0), int_const(1), ite(lt(x, 0), int_const(-1), int_const(0)))
    return _reference_problem("signum", (x,), body)


def _max_offset_problem(offset: int) -> SygusProblem:
    x, y = int_var("x"), int_var("y")
    body = ite(ge(x, y), add(x, offset), add(y, offset))
    return _reference_problem(f"max2-plus-{offset}", (x, y), body)


def _saturating_sub_problem() -> SygusProblem:
    x, y = int_var("x"), int_var("y")
    body = ite(ge(sub(x, y), 0), sub(x, y), int_const(0))
    return _reference_problem("saturating-sub", (x, y), body)


def _tie_break_problem() -> SygusProblem:
    """Prefer x on ties: multi-conjunct single-invocation spec."""
    x, y = int_var("x"), int_var("y")
    fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
    fx = fun.apply((x, y))
    spec = and_(
        implies(ge(x, y), eq(fx, x)),
        implies(lt(x, y), eq(fx, y)),
    )
    return SygusProblem(fun, spec, (x, y), track="CLIA", name="tie-break")


def _pbe_problem(name: str, arity: int, examples, difficulty_hint=None) -> SygusProblem:
    """Programming-by-example constraints: concrete input/output pairs.

    Deduction cannot force an implementation from finitely many points, so
    these exercise the enumerative engines specifically (the paper counts
    PBE under enumerative synthesis, Section 1).
    """
    params = tuple(int_var(f"x{i}") for i in range(arity))
    fun = SynthFun("f", params, INT, clia_grammar(params))
    constraints = []
    for inputs, output in examples:
        actuals = tuple(int_const(v) for v in inputs)
        constraints.append(eq(fun.apply(actuals), int_const(output)))
    spec = and_(*constraints)
    return SygusProblem(fun, spec, params, track="CLIA", name=name)


def _pbe_from_function(name: str, arity: int, func, points) -> SygusProblem:
    examples = [(pt, func(*pt)) for pt in points]
    return _pbe_problem(name, arity, examples)


_PBE_POINTS_2 = [(0, 0), (1, 5), (5, 1), (-3, 2), (4, 4), (-2, -7), (9, -1)]
_PBE_POINTS_1 = [(0,), (1,), (-1,), (5,), (-6,), (12,)]


def pbe_benchmarks() -> List[Benchmark]:
    """PBE-flavoured CLIA benchmarks over fixed example sets."""
    cases = [
        ("pbe-max2", 2, lambda a, b: max(a, b), _PBE_POINTS_2, 2),
        ("pbe-min2", 2, lambda a, b: min(a, b), _PBE_POINTS_2, 2),
        ("pbe-abs", 1, abs, _PBE_POINTS_1, 2),
        ("pbe-double", 1, lambda a: 2 * a, _PBE_POINTS_1, 1),
        ("pbe-sum-plus-one", 2, lambda a, b: a + b + 1, _PBE_POINTS_2, 1),
        ("pbe-relu", 1, lambda a: max(a, 0), _PBE_POINTS_1, 2),
        ("pbe-diff-abs", 2, lambda a, b: abs(a - b), _PBE_POINTS_2, 3),
        ("pbe-clip5", 1, lambda a: min(a, 5), _PBE_POINTS_1, 2),
    ]
    return [
        Benchmark(
            name,
            "CLIA",
            (lambda n=name, a=arity, f=func, p=points: _pbe_from_function(n, a, f, p)),
            difficulty,
        )
        for name, arity, func, points, difficulty in cases
    ]


def clia_benchmarks() -> List[Benchmark]:
    benchmarks: List[Benchmark] = []
    for n in (2, 3, 4, 5):
        benchmarks.append(
            Benchmark(f"max{n}", "CLIA", (lambda n=n: _max_n_problem(n)), min(n - 1, 5))
        )
        benchmarks.append(
            Benchmark(f"min{n}", "CLIA", (lambda n=n: _min_n_problem(n)), min(n - 1, 5))
        )
    benchmarks.append(Benchmark("abs", "CLIA", _abs_problem, 1))
    benchmarks.append(Benchmark("clamp", "CLIA", _clamp_problem, 2))
    benchmarks.append(Benchmark("relu-sum", "CLIA", _sum_guard_problem, 2))
    for n in (2, 3):
        benchmarks.append(
            Benchmark(
                f"array_search_{n}",
                "CLIA",
                (lambda n=n: _array_search_problem(n)),
                n + 1,
            )
        )
    benchmarks.append(Benchmark("max2-commutative", "CLIA", _commutative_max_problem, 2))
    benchmarks.append(
        Benchmark("abs-diff", "CLIA", (lambda: _ite_reference("abs-diff", 0)), 2)
    )
    for extra in (1, 2):
        benchmarks.append(
            Benchmark(
                f"abs-diff-step{extra}",
                "CLIA",
                (lambda e=extra: _ite_reference(f"abs-diff-step{e}", e)),
                2 + extra,
            )
        )
    x, y, z = int_var("x"), int_var("y"), int_var("z")
    benchmarks.append(
        Benchmark(
            "median3",
            "CLIA",
            (
                lambda: _reference_problem(
                    "median3",
                    (x, y, z),
                    ite(
                        ge(x, y),
                        ite(ge(y, z), y, ite(ge(x, z), z, x)),
                        ite(ge(x, z), x, ite(ge(y, z), z, y)),
                    ),
                )
            ),
            4,
        )
    )
    benchmarks.append(
        Benchmark(
            "linear-comb",
            "CLIA",
            (lambda: _reference_problem("linear-comb", (x, y), add(x, x, y, 1))),
            1,
        )
    )
    for width in (0, 2, 5):
        benchmarks.append(
            Benchmark(f"band-{width}", "CLIA", (lambda w=width: _band_problem(w)), 1)
        )
    benchmarks.append(Benchmark("signum", "CLIA", _signum_problem, 3))
    for offset in (1, 3):
        benchmarks.append(
            Benchmark(
                f"max2-plus-{offset}",
                "CLIA",
                (lambda o=offset: _max_offset_problem(o)),
                2,
            )
        )
    benchmarks.append(Benchmark("saturating-sub", "CLIA", _saturating_sub_problem, 2))
    benchmarks.append(Benchmark("tie-break", "CLIA", _tie_break_problem, 2))
    return benchmarks


# ---------------------------------------------------------------------------
# INV track
# ---------------------------------------------------------------------------


def _count_up(bound: int) -> SygusProblem:
    x = int_var("x")
    return InvariantProblem.from_updates(
        (x,),
        eq(x, 0),
        (ite(lt(x, bound), add(x, 1), x),),
        implies(not_(lt(x, bound)), eq(x, bound)),
        name=f"count-up-{bound}",
    ).to_sygus()


def _count_down(bound: int) -> SygusProblem:
    x = int_var("x")
    return InvariantProblem.from_updates(
        (x,),
        eq(x, bound),
        (ite(gt(x, 0), sub(x, 1), x),),
        implies(not_(gt(x, 0)), eq(x, 0)),
        name=f"count-down-{bound}",
    ).to_sygus()


def _twin_counters(bound: int) -> SygusProblem:
    x, y = int_var("x"), int_var("y")
    return InvariantProblem.from_updates(
        (x, y),
        and_(eq(x, 0), eq(y, 0)),
        (
            ite(lt(x, bound), add(x, 1), x),
            ite(lt(x, bound), add(y, 1), y),
        ),
        implies(not_(lt(x, bound)), eq(y, bound)),
        name=f"twin-counters-{bound}",
    ).to_sygus()


def _crossing(bound: int) -> SygusProblem:
    """x climbs while y descends; they must meet at the configured bound."""
    x, y = int_var("x"), int_var("y")
    return InvariantProblem.from_updates(
        (x, y),
        and_(eq(x, 0), eq(y, bound)),
        (
            ite(lt(x, bound), add(x, 1), x),
            ite(lt(x, bound), sub(y, 1), y),
        ),
        implies(not_(lt(x, bound)), eq(y, 0)),
        name=f"crossing-{bound}",
    ).to_sygus()


def _cap_only(bound: int) -> SygusProblem:
    x = int_var("x")
    return InvariantProblem.from_updates(
        (x,),
        eq(x, 0),
        (ite(lt(x, bound), add(x, 1), x),),
        le(x, bound),
        name=f"cap-{bound}",
    ).to_sygus()


def _hold_value(bound: int) -> SygusProblem:
    """A stationary variable must keep its initial value."""
    x, y = int_var("x"), int_var("y")
    return InvariantProblem.from_updates(
        (x, y),
        and_(eq(x, 0), eq(y, 7)),
        (ite(lt(x, bound), add(x, 1), x), y),
        implies(not_(lt(x, bound)), eq(y, 7)),
        name=f"hold-{bound}",
    ).to_sygus()


def _nonconstant_init(bound: int) -> SygusProblem:
    """Precondition is a range, so loop summarisation does not apply."""
    x = int_var("x")
    return InvariantProblem.from_updates(
        (x,),
        and_(ge(x, 0), le(x, 3)),
        (ite(lt(x, bound), add(x, 1), x),),
        le(x, bound),
        name=f"range-init-{bound}",
    ).to_sygus()


def _step2(bound: int) -> SygusProblem:
    """Increment by 2: no unit-step pivot, so loop summarisation stays out."""
    x = int_var("x")
    return InvariantProblem.from_updates(
        (x,),
        eq(x, 0),
        (ite(lt(x, bound), add(x, 2), x),),
        le(x, add(int_const(bound), 1)),
        name=f"step2-{bound}",
    ).to_sygus()


def _three_counters(bound: int) -> SygusProblem:
    x, y, z = int_var("x"), int_var("y"), int_var("z")
    return InvariantProblem.from_updates(
        (x, y, z),
        and_(eq(x, 0), eq(y, 0), eq(z, bound)),
        (
            ite(lt(x, bound), add(x, 1), x),
            ite(lt(x, bound), add(y, 1), y),
            ite(lt(x, bound), sub(z, 1), z),
        ),
        implies(not_(lt(x, bound)), and_(eq(y, bound), eq(z, 0))),
        name=f"three-counters-{bound}",
    ).to_sygus()


def _bounded_drift(bound: int) -> SygusProblem:
    """y trails x by a fixed offset through the whole run."""
    x, y = int_var("x"), int_var("y")
    return InvariantProblem.from_updates(
        (x, y),
        and_(eq(x, 3), eq(y, 0)),
        (ite(lt(x, bound), add(x, 1), x), ite(lt(x, bound), add(y, 1), y)),
        implies(not_(lt(x, bound)), eq(sub(x, y), 3)),
        name=f"drift-{bound}",
    ).to_sygus()


def inv_benchmarks() -> List[Benchmark]:
    benchmarks: List[Benchmark] = []
    for bound in (8, 16, 32, 64, 100, 128):
        benchmarks.append(
            Benchmark(f"count-up-{bound}", "INV", (lambda b=bound: _count_up(b)), 2)
        )
    for bound in (8, 16, 64, 100):
        benchmarks.append(
            Benchmark(f"count-down-{bound}", "INV", (lambda b=bound: _count_down(b)), 2)
        )
    for bound in (8, 16, 64):
        benchmarks.append(
            Benchmark(
                f"twin-counters-{bound}", "INV", (lambda b=bound: _twin_counters(b)), 3
            )
        )
        benchmarks.append(
            Benchmark(f"crossing-{bound}", "INV", (lambda b=bound: _crossing(b)), 3)
        )
    for bound in (8, 64, 100):
        benchmarks.append(
            Benchmark(f"cap-{bound}", "INV", (lambda b=bound: _cap_only(b)), 1)
        )
    for bound in (8, 16):
        benchmarks.append(
            Benchmark(f"hold-{bound}", "INV", (lambda b=bound: _hold_value(b)), 2)
        )
    for bound in (8, 16, 64):
        benchmarks.append(
            Benchmark(
                f"range-init-{bound}", "INV", (lambda b=bound: _nonconstant_init(b)), 3
            )
        )
    for bound in (8, 16, 64):
        benchmarks.append(
            Benchmark(f"step2-{bound}", "INV", (lambda b=bound: _step2(b)), 3)
        )
    for bound in (8, 16):
        benchmarks.append(
            Benchmark(
                f"three-counters-{bound}",
                "INV",
                (lambda b=bound: _three_counters(b)),
                4,
            )
        )
        benchmarks.append(
            Benchmark(f"drift-{bound}", "INV", (lambda b=bound: _bounded_drift(b)), 3)
        )
    return benchmarks


# ---------------------------------------------------------------------------
# General track
# ---------------------------------------------------------------------------


def _qm_reference(name: str, params, body: Term, difficulty: int) -> Benchmark:
    def build() -> SygusProblem:
        fun = SynthFun("f", tuple(params), INT, qm_grammar(tuple(params)))
        fx = fun.apply(tuple(params))
        return SygusProblem(
            fun, eq(fx, body), tuple(params), track="General", name=name
        )

    return Benchmark(name, "General", build, difficulty)


def _double_grammar(params) -> Grammar:
    """S -> 0 | 1 | params | S + S | S - S | double(S)."""
    x1 = int_var("x1")
    double = InterpretedFunction("double", (x1,), add(x1, x1))
    s = nonterminal("S", INT)
    from repro.lang.builders import apply_fn

    rules = [int_const(0), int_const(1)]
    rules.extend(params)
    rules.extend([add(s, s), sub(s, s), apply_fn("double", (s,), INT)])
    return Grammar({"S": INT}, "S", {"S": rules}, {"double": double}, tuple(params))


def _double_problem(k: int) -> SygusProblem:
    """f(x) = 2^k * x in the double-grammar (exercises the Match rule)."""
    x = int_var("x")
    grammar = _double_grammar((x,))
    fun = SynthFun("f", (x,), INT, grammar)
    fx = fun.apply((x,))
    body: Term = x
    for _ in range(k):
        body = add(body, body)
    return SygusProblem(fun, eq(fx, body), (x,), track="General", name=f"double-{k}")


def _operator_grammar(params, *functions: InterpretedFunction) -> Grammar:
    """S -> 0 | 1 | params | S + S | S - S | op(S..) for each operator."""
    from repro.lang.builders import apply_fn

    s = nonterminal("S", INT)
    rules: List[Term] = [int_const(0), int_const(1)]
    rules.extend(params)
    rules.extend([add(s, s), sub(s, s)])
    for func in functions:
        rules.append(apply_fn(func.name, tuple([s] * func.arity), INT))
    return Grammar(
        {"S": INT},
        "S",
        {"S": rules},
        {func.name: func for func in functions},
        tuple(params),
    )


def _nat_function() -> InterpretedFunction:
    """nat(a) = max(a, 0), a unary conditional operator."""
    a = int_var("a1")
    return InterpretedFunction("nat", (a,), ite(lt(a, 0), int_const(0), a))


def _cap_function(bound: int) -> InterpretedFunction:
    a = int_var("a1")
    return InterpretedFunction(
        f"cap{bound}", (a,), ite(gt(a, bound), int_const(bound), a)
    )


def _nat_grammar_problem(name: str, body: Term, params, difficulty: int) -> Benchmark:
    def build() -> SygusProblem:
        grammar = _operator_grammar(tuple(params), _nat_function())
        fun = SynthFun("f", tuple(params), INT, grammar)
        return SygusProblem(
            fun, eq(fun.apply(tuple(params)), body), tuple(params),
            track="General", name=name,
        )

    return Benchmark(name, "General", build, difficulty)


def _cap_grammar_problem(name: str, bound: int, body: Term, params, difficulty: int) -> Benchmark:
    def build() -> SygusProblem:
        grammar = _operator_grammar(tuple(params), _cap_function(bound))
        fun = SynthFun("f", tuple(params), INT, grammar)
        return SygusProblem(
            fun, eq(fun.apply(tuple(params)), body), tuple(params),
            track="General", name=name,
        )

    return Benchmark(name, "General", build, difficulty)


def _plus_grammar_problem() -> SygusProblem:
    """Tiny grammar without constants placeholder: S -> x | y | 1 | S + S."""
    x, y = int_var("x"), int_var("y")
    s = nonterminal("S", INT)
    grammar = Grammar(
        {"S": INT},
        "S",
        {"S": [x, y, int_const(1), add(s, s)]},
        {},
        (x, y),
    )
    fun = SynthFun("f", (x, y), INT, grammar)
    fx = fun.apply((x, y))
    spec = eq(fx, add(x, y, 2))
    return SygusProblem(fun, spec, (x, y), track="General", name="plus-two")


def general_benchmarks() -> List[Benchmark]:
    x, y, z = int_var("x"), int_var("y"), int_var("z")
    benchmarks: List[Benchmark] = [
        _qm_reference("qm-max2", (x, y), ite(ge(x, y), x, y), 2),
        _qm_reference("qm-min2", (x, y), ite(le(x, y), x, y), 2),
        _qm_reference("qm-abs", (x,), ite(ge(x, 0), x, sub(0, x)), 2),
        _qm_reference("qm-relu", (x,), ite(ge(x, 0), x, int_const(0)), 1),
        _qm_reference(
            "qm-max3",
            (x, y, z),
            ite(and_(ge(x, y), ge(x, z)), x, ite(ge(y, z), y, z)),
            5,
        ),
        _qm_reference(
            "qm-min3",
            (x, y, z),
            ite(and_(le(x, y), le(x, z)), x, ite(le(y, z), y, z)),
            5,
        ),
        _qm_reference("qm-clip0", (x, y), ite(ge(x, 0), add(x, y), y), 3),
        _qm_reference("qm-sign-split", (x, y), ite(lt(x, 0), y, add(x, y)), 3),
    ]
    for k in (2, 3, 4):
        benchmarks.append(
            Benchmark(f"double-{k}", "General", (lambda k=k: _double_problem(k)), 1)
        )
    benchmarks.append(Benchmark("plus-two", "General", _plus_grammar_problem, 1))
    benchmarks.append(
        Benchmark("no-const-max2", "General", _restricted_constant_max2, 4)
    )
    benchmarks.extend(
        [
            _qm_reference("qm-shifted-abs", (x,), ite(ge(x, 1), sub(x, 1), sub(1, x)), 3),
            _qm_reference("qm-floor0", (x, y), ite(ge(y, 0), x, sub(x, y)), 3),
            _qm_reference("qm-id", (x,), x, 1),
            _qm_reference("qm-sum", (x, y), add(x, y), 1),
            _qm_reference("qm-diff-or-zero", (x, y),
                          ite(ge(x, y), sub(x, y), int_const(0)), 3),
        ]
    )
    benchmarks.extend(
        [
            _nat_grammar_problem("nat-relu", ite(ge(x, 0), x, int_const(0)), (x,), 1),
            _nat_grammar_problem(
                "nat-max2", ite(ge(x, y), x, y), (x, y), 2
            ),
            _nat_grammar_problem(
                "nat-abs", ite(ge(x, 0), x, sub(0, x)), (x,), 2
            ),
            _cap_grammar_problem(
                "cap-clip10", 10, ite(gt(x, 10), int_const(10), x), (x,), 1
            ),
            _cap_grammar_problem(
                "cap-min2", 10,
                ite(le(x, y), x, y), (x, y), 3
            ),
        ]
    )
    return benchmarks


def _restricted_constant_max2() -> SygusProblem:
    """Full CLIA structure but only the constants 0 and 1 (no Constant Int):
    forces the generic production encoder / plain enumeration."""
    x, y = int_var("x"), int_var("y")
    grammar = clia_grammar((x, y), allow_any_const=False)
    fun = SynthFun("f", (x, y), INT, grammar)
    fx = fun.apply((x, y))
    spec = and_(ge(fx, x), ge(fx, y), or_(eq(fx, x), eq(fx, y)))
    return SygusProblem(fun, spec, (x, y), track="General", name="no-const-max2")


# ---------------------------------------------------------------------------
# Suite assembly
# ---------------------------------------------------------------------------


def full_suite() -> List[Benchmark]:
    """Every benchmark, all tracks."""
    return (
        inv_benchmarks()
        + clia_benchmarks()
        + pbe_benchmarks()
        + general_benchmarks()
    )


#: Excluded from the demo subset: solvable but slow enough to dominate a
#: smoke run's wall clock (see docs/SERVICE.md "Measured behaviour").
EXCLUDED = frozenset({"qm-floor0", "qm-max2", "range-init-64", "step2-64"})


def demo_subset() -> List[Benchmark]:
    """The 85-problem demo subset of the generated suite."""
    return [b for b in full_suite() if b.name not in EXCLUDED]


def suite_by_track() -> Dict[str, List[Benchmark]]:
    tracks: Dict[str, List[Benchmark]] = {"INV": [], "CLIA": [], "General": []}
    for benchmark in full_suite():
        tracks[benchmark.track].append(benchmark)
    return tracks


def find_benchmark(name: str) -> Benchmark:
    for benchmark in full_suite():
        if benchmark.name == name:
            return benchmark
    raise KeyError(f"no benchmark named {name!r}")
