"""Serialising problems back to SyGuS-IF text.

The inverse of :mod:`repro.sygus.parser`: benchmarks built programmatically
(e.g. the generated suite) can be exported as standard ``.sl`` files and fed
to any SyGuS solver — or round-tripped through our own parser, which the
test suite uses as a strong well-formedness check.
"""

from __future__ import annotations

from typing import List, Set

from repro.lang.ast import Kind, Term
from repro.lang.printer import to_sexpr
from repro.lang.traversal import contains_app, rewrite_bottom_up
from repro.lang.builders import var
from repro.sygus.grammar import (
    Grammar,
    InterpretedFunction,
    is_any_const_ref,
    is_nonterminal_ref,
    ref_name,
)
from repro.sygus.problem import InvariantProblem, SygusProblem


def _strip_placeholders(term: Term) -> Term:
    """Replace ``<N>`` placeholder variables with plain names for printing."""

    def rw(t: Term) -> Term:
        if is_nonterminal_ref(t):
            return var(ref_name(t), t.sort)
        return t

    return rewrite_bottom_up(term, rw)


def _production_sexpr(rhs: Term) -> str:
    if is_any_const_ref(rhs):
        return "(Constant Int)"
    return to_sexpr(_strip_placeholders(rhs))


def grammar_block(grammar: Grammar) -> str:
    """The v1-style grammar block of a ``synth-fun``."""
    groups: List[str] = []
    ordered = [grammar.start] + [
        nt for nt in grammar.nonterminals if nt != grammar.start
    ]
    for nt in ordered:
        sort = grammar.nonterminals[nt]
        rules = " ".join(
            _production_sexpr(rhs) for rhs in grammar.productions.get(nt, ())
        )
        groups.append(f"({nt} {sort.name} ({rules}))")
    return "(" + " ".join(groups) + ")"


def _define_fun(func: InterpretedFunction) -> str:
    params = " ".join(f"({p.payload} {p.sort.name})" for p in func.params)
    return (
        f"(define-fun {func.name} ({params}) {func.return_sort.name} "
        f"{to_sexpr(func.body)})"
    )


def _ordered_interpreted(grammar: Grammar) -> List[InterpretedFunction]:
    """Interpreted functions in dependency order (callees first)."""
    remaining = dict(grammar.interpreted)
    ordered: List[InterpretedFunction] = []
    emitted: Set[str] = set()
    for _ in range(len(remaining) + 1):
        progressed = False
        for name in list(remaining):
            func = remaining[name]
            deps = {
                other for other in grammar.interpreted if other != name
                and contains_app(func.body, other)
            }
            if deps <= emitted:
                ordered.append(func)
                emitted.add(name)
                del remaining[name]
                progressed = True
        if not progressed:
            break
    ordered.extend(remaining.values())  # cycles: emit anyway
    return ordered


def _conjuncts(spec: Term) -> List[Term]:
    if spec.kind is Kind.AND:
        return list(spec.args)
    return [spec]


def problem_to_sygus(problem: SygusProblem) -> str:
    """Render a problem as SyGuS-IF text.

    Invariant-track problems are rendered with ``synth-inv``/
    ``inv-constraint``; everything else with ``synth-fun`` (including the
    grammar when it is not the default) plus plain ``constraint`` commands.
    """
    if problem.invariant is not None:
        return _invariant_to_sygus(problem)
    lines = ["(set-logic LIA)"]
    fun = problem.synth_fun
    for func in _ordered_interpreted(fun.grammar):
        lines.append(_define_fun(func))
    params = " ".join(f"({p.payload} {p.sort.name})" for p in fun.params)
    lines.append(
        f"(synth-fun {fun.name} ({params}) {fun.return_sort.name}\n"
        f"  {grammar_block(fun.grammar)})"
    )
    for variable in problem.variables:
        lines.append(f"(declare-var {variable.payload} {variable.sort.name})")
    for conjunct in _conjuncts(problem.spec):
        lines.append(f"(constraint {to_sexpr(conjunct)})")
    lines.append("(check-synth)")
    return "\n".join(lines) + "\n"


def _invariant_to_sygus(problem: SygusProblem) -> str:
    invariant = problem.invariant
    assert invariant is not None
    fun = problem.synth_fun
    lines = ["(set-logic LIA)"]
    params = " ".join(f"({p.payload} {p.sort.name})" for p in fun.params)
    lines.append(f"(synth-inv {fun.name} ({params}))")
    current = " ".join(
        f"({v.payload} {v.sort.name})" for v in invariant.variables
    )
    primed = " ".join(
        f"({InvariantProblem.primed(v).payload} {v.sort.name})"
        for v in invariant.variables
    )
    lines.append(f"(define-fun pre_fun ({current}) Bool {to_sexpr(invariant.pre)})")
    lines.append(
        f"(define-fun trans_fun ({current} {primed}) Bool "
        f"{to_sexpr(invariant.trans)})"
    )
    lines.append(
        f"(define-fun post_fun ({current}) Bool {to_sexpr(invariant.post)})"
    )
    lines.append(f"(inv-constraint {fun.name} pre_fun trans_fun post_fun)")
    lines.append("(check-synth)")
    return "\n".join(lines) + "\n"


def multi_problem_to_sygus(problem) -> str:
    """Render a :class:`~repro.sygus.multi.MultiSygusProblem` as SyGuS-IF."""
    lines = ["(set-logic LIA)"]
    emitted: Set[str] = set()
    for fun in problem.synth_funs:
        for func in _ordered_interpreted(fun.grammar):
            if func.name not in emitted:
                emitted.add(func.name)
                lines.append(_define_fun(func))
    for fun in problem.synth_funs:
        params = " ".join(f"({p.payload} {p.sort.name})" for p in fun.params)
        lines.append(
            f"(synth-fun {fun.name} ({params}) {fun.return_sort.name}\n"
            f"  {grammar_block(fun.grammar)})"
        )
    for variable in problem.variables:
        lines.append(f"(declare-var {variable.payload} {variable.sort.name})")
    for conjunct in _conjuncts(problem.spec):
        lines.append(f"(constraint {to_sexpr(conjunct)})")
    lines.append("(check-synth)")
    return "\n".join(lines) + "\n"


def export_suite(directory: str) -> List[str]:
    """Write every suite benchmark as a ``.sl`` file; returns the paths."""
    import os

    from repro.bench.suite import full_suite

    os.makedirs(directory, exist_ok=True)
    paths = []
    for benchmark in full_suite():
        path = os.path.join(directory, f"{benchmark.name}.sl")
        with open(path, "w") as handle:
            handle.write(problem_to_sygus(benchmark.problem()))
        paths.append(path)
    return paths


def _main() -> int:  # pragma: no cover - thin CLI wrapper
    """``python -m repro.sygus.serializer <directory>`` exports the suite."""
    import sys

    directory = sys.argv[1] if len(sys.argv) > 1 else "sl-benchmarks"
    paths = export_suite(directory)
    print(f"wrote {len(paths)} SyGuS-IF files to {directory}/")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_main())
