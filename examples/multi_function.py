#!/usr/bin/env python3
"""Synthesizing several functions at once (Section 2.1, Remark).

Two flavours:

1. *separable* constraints — each constraint mentions one function, so the
   problem decomposes into independent cooperative-synthesis runs;
2. *coupled* constraints — the functions appear together in one constraint
   (here: f and g must partition x+y into max and min), so the fixed-height
   search (Algorithm 2) runs on the whole problem: one encoder per
   function, and all unknowns in a single SMT query per iteration.

Run:  python examples/multi_function.py
"""

from repro.lang import add, and_, eq, ge, int_var, le, sub
from repro.lang.sorts import INT
from repro.sygus.grammar import clia_grammar
from repro.sygus.multi import MultiSygusProblem
from repro.sygus.problem import SynthFun
from repro.synth.multi import MultiFunctionSynthesizer

x, y = int_var("x"), int_var("y")


def separable() -> None:
    print("== separable: next and previous ==")
    f = SynthFun("next", (x,), INT, clia_grammar((x,)))
    g = SynthFun("prev", (x,), INT, clia_grammar((x,)))
    spec = and_(
        eq(f.apply((x,)), add(x, 1)),
        eq(g.apply((x,)), sub(x, 1)),
    )
    problem = MultiSygusProblem((f, g), spec, (x,), name="next-prev")
    solution = MultiFunctionSynthesizer(60).synthesize(problem).solution
    assert solution is not None
    print(solution.define_fun())


def coupled() -> None:
    print("\n== coupled: max and min partition the sum ==")
    f = SynthFun("bigger", (x, y), INT, clia_grammar((x, y)))
    g = SynthFun("smaller", (x, y), INT, clia_grammar((x, y)))
    fx, gx = f.apply((x, y)), g.apply((x, y))
    spec = and_(
        ge(fx, x),
        ge(fx, y),
        le(gx, x),
        le(gx, y),
        eq(add(fx, gx), add(x, y)),  # couples f and g
    )
    problem = MultiSygusProblem((f, g), spec, (x, y), name="max-min-pair")
    solution = MultiFunctionSynthesizer(120).synthesize(problem).solution
    assert solution is not None
    print(solution.define_fun())
    ok, _ = problem.verify(solution.bodies)
    print("jointly verified:", ok)


if __name__ == "__main__":
    separable()
    coupled()
