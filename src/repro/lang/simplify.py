"""Lightweight logical and arithmetic simplification.

This is the `Simplify` step of the deductive component (Algorithm 3): local,
meaning-preserving rewrites — constant folding, neutral-element removal,
branch collapsing.  It is deliberately linear-time; heavier reasoning belongs
to the deductive rules or the SMT solver.
"""

from __future__ import annotations

from typing import Dict

from repro.lang.ast import Kind, Term
from repro.lang.builders import (
    and_,
    bool_const,
    false,
    int_const,
    not_,
    or_,
    true,
)
from repro.lang.traversal import rewrite_bottom_up


#: Every term simplified in this process -> its simplified form.  The rewrite
#: is a pure function of interned terms, and interned terms live as long as
#: the process, so the table is never cleared.
_simplified: Dict[Term, Term] = {}


def simplify(term: Term) -> Term:
    """Simplify ``term``; the result is logically equivalent."""
    return rewrite_bottom_up(term, _simplify_node, _simplified)


def _const_value(term: Term):
    if term.kind is Kind.CONST:
        return term.payload
    return None


def _simplify_node(term: Term) -> Term:
    kind = term.kind
    args = term.args
    if kind is Kind.ADD:
        return _simplify_add(args)
    if kind is Kind.SUB:
        left, right = args
        if right.kind is Kind.CONST and right.payload == 0:
            return left
        if left.kind is Kind.CONST and right.kind is Kind.CONST:
            return int_const(left.payload - right.payload)
        if left is right:
            return int_const(0)
        return term
    if kind is Kind.NEG:
        inner = args[0]
        if inner.kind is Kind.CONST:
            return int_const(-inner.payload)
        if inner.kind is Kind.NEG:
            return inner.args[0]
        return term
    if kind is Kind.MUL:
        left, right = args
        lv, rv = _const_value(left), _const_value(right)
        if lv is not None and rv is not None:
            return int_const(lv * rv)
        if lv == 0 or rv == 0:
            return int_const(0)
        if lv == 1:
            return right
        if rv == 1:
            return left
        return term
    if kind in (Kind.GE, Kind.GT, Kind.LE, Kind.LT, Kind.EQ):
        return _simplify_comparison(term)
    if kind is Kind.NOT:
        inner = args[0]
        value = _const_value(inner)
        if value is not None:
            return bool_const(not value)
        if inner.kind is Kind.NOT:
            return inner.args[0]
        return term
    if kind is Kind.AND:
        # Flatten nested conjunctions BEFORE deduping: a child rewrite
        # (e.g. `(=> true (and X Y))` -> `(and X Y)`) can expose a nested
        # AND whose members duplicate a sibling, and the `and_` builder
        # would splice them in after the dedup, breaking idempotence.
        args = _flatten(Kind.AND, args)
        if any(_const_value(a) is False for a in args):
            return false()
        kept = _dedupe(a for a in args if _const_value(a) is not True)
        if _has_complement(kept):
            return false()
        return and_(*kept)
    if kind is Kind.OR:
        args = _flatten(Kind.OR, args)
        if any(_const_value(a) is True for a in args):
            return true()
        kept = _dedupe(a for a in args if _const_value(a) is not False)
        if _has_complement(kept):
            return true()
        return or_(*kept)
    if kind is Kind.IMPLIES:
        ante, cons = args
        if _const_value(ante) is True:
            return cons
        if _const_value(ante) is False:
            return true()
        if _const_value(cons) is True:
            return true()
        if _const_value(cons) is False:
            return not_(ante)
        if ante is cons:
            return true()
        return term
    if kind is Kind.ITE:
        cond, then, els = args
        value = _const_value(cond)
        if value is True:
            return then
        if value is False:
            return els
        if then is els:
            return then
        return term
    return term


def _simplify_add(args) -> Term:
    const_sum = 0
    rest = []
    for arg in args:
        if arg.kind is Kind.CONST:
            const_sum += arg.payload
        else:
            rest.append(arg)
    if not rest:
        return int_const(const_sum)
    if const_sum != 0:
        rest.append(int_const(const_sum))
    if len(rest) == 1:
        return rest[0]
    return Term.make(Kind.ADD, tuple(rest))


def _simplify_comparison(term: Term) -> Term:
    left, right = term.args
    kind = term.kind
    if left is right:
        if kind in (Kind.GE, Kind.LE, Kind.EQ):
            return true()
        return false()
    lv, rv = _const_value(left), _const_value(right)
    if lv is not None and rv is not None:
        if kind is Kind.GE:
            return bool_const(lv >= rv)
        if kind is Kind.GT:
            return bool_const(lv > rv)
        if kind is Kind.LE:
            return bool_const(lv <= rv)
        if kind is Kind.LT:
            return bool_const(lv < rv)
        return bool_const(lv == rv)
    return term


def _flatten(kind: Kind, args) -> list:
    flat = []
    for arg in args:
        if arg.kind is kind:
            flat.extend(arg.args)
        else:
            flat.append(arg)
    return flat


def _dedupe(terms) -> list:
    seen = set()
    result = []
    for term in terms:
        if term not in seen:
            seen.add(term)
            result.append(term)
    return result


def _has_complement(terms) -> bool:
    term_set = set(terms)
    for term in terms:
        if term.kind is Kind.NOT and term.args[0] in term_set:
            return True
    return False
