"""Traversals over terms: free variables, substitution, subexpressions.

All functions are memoised via dictionaries keyed on the interned terms, so
shared subterms are visited once.  The memo lives for one call, except that
a pure rewrite may hand :func:`rewrite_bottom_up` a table it keeps across
calls.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
)

from repro.lang.ast import Kind, Term


def free_vars(term: Term) -> FrozenSet[Term]:
    """The set of variables occurring in ``term``."""
    cache: Dict[Term, FrozenSet[Term]] = {}

    def go(t: Term) -> FrozenSet[Term]:
        hit = cache.get(t)
        if hit is not None:
            return hit
        if t.kind is Kind.VAR:
            result: FrozenSet[Term] = frozenset((t,))
        elif not t.args:
            result = frozenset()
        else:
            result = frozenset().union(*(go(a) for a in t.args))
        cache[t] = result
        return result

    return go(term)


def subexpressions(term: Term) -> Iterator[Term]:
    """All distinct subexpressions of ``term`` (including itself), post-order."""
    seen: set[Term] = set()

    def go(t: Term) -> Iterator[Term]:
        if t in seen:
            return
        seen.add(t)
        for child in t.args:
            yield from go(child)
        yield t

    return go(term)


def contains_app(term: Term, name: str) -> bool:
    """Does ``term`` contain an application of the function ``name``?"""
    for sub in subexpressions(term):
        if sub.kind is Kind.APP and sub.payload == name:
            return True
    return False


def app_occurrences(term: Term, name: str) -> list[Term]:
    """All distinct applications of ``name`` inside ``term``."""
    return [
        sub
        for sub in subexpressions(term)
        if sub.kind is Kind.APP and sub.payload == name
    ]


def rewrite_bottom_up(
    term: Term,
    rewrite: Callable[[Term], Term],
    cache: Optional[Dict[Term, Term]] = None,
) -> Term:
    """Rebuild ``term`` bottom-up, applying ``rewrite`` at every node.

    ``rewrite`` receives a node whose children have already been rewritten and
    returns its replacement (possibly the node itself).  ``cache`` maps each
    node already visited to its result; a fresh one is used when it is
    omitted.  Passing one table across calls is sound only when ``rewrite``
    is a pure function of its interned argument.
    """
    if cache is None:
        cache = {}

    def go(t: Term) -> Term:
        hit = cache.get(t)
        if hit is not None:
            return hit
        if t.args:
            new_args = tuple(go(a) for a in t.args)
            if new_args != t.args:
                t2 = Term.make(t.kind, new_args, t.payload, t.sort)
            else:
                t2 = t
        else:
            t2 = t
        result = rewrite(t2)
        cache[t] = result
        return result

    return go(term)


def substitute(term: Term, mapping: Mapping[Term, Term]) -> Term:
    """Replace variables (or arbitrary subterms) according to ``mapping``."""
    if not mapping:
        return term
    cache: Dict[Term, Term] = {}

    def go(t: Term) -> Term:
        hit = cache.get(t)
        if hit is not None:
            return hit
        replacement = mapping.get(t)
        if replacement is not None:
            result = replacement
        elif not t.args:
            result = t
        else:
            new_args = tuple(go(a) for a in t.args)
            if new_args == t.args:
                result = t
            else:
                result = Term.make(t.kind, new_args, t.payload, t.sort)
        cache[t] = result
        return result

    return go(term)


def substitute_apps(
    term: Term,
    name: str,
    params: Sequence[Term],
    body: Term,
) -> Term:
    """Inline every application ``name(a1..an)`` as ``body[a1/params[0], ...]``.

    This is beta-reduction of ``λparams.body`` at each call site of ``name``;
    call sites inside the actual arguments are inlined first (innermost-out).
    """
    cache: Dict[Term, Term] = {}

    def go(t: Term) -> Term:
        hit = cache.get(t)
        if hit is not None:
            return hit
        if t.args:
            new_args = tuple(go(a) for a in t.args)
        else:
            new_args = ()
        if t.kind is Kind.APP and t.payload == name:
            if len(new_args) != len(params):
                raise ValueError(
                    f"arity mismatch inlining {name}: "
                    f"{len(new_args)} actuals vs {len(params)} formals"
                )
            result = substitute(body, dict(zip(params, new_args)))
        elif new_args != t.args:
            result = Term.make(t.kind, new_args, t.payload, t.sort)
        else:
            result = t
        cache[t] = result
        return result

    return go(term)


def rename_apps(term: Term, renaming: Mapping[str, str]) -> Term:
    """Rename applied function symbols according to ``renaming``."""

    def rw(t: Term) -> Term:
        if t.kind is Kind.APP and t.payload in renaming:
            return Term.make(Kind.APP, t.args, renaming[t.payload], t.sort)
        return t

    return rewrite_bottom_up(term, rw)


def term_height(term: Term) -> int:
    """Height of the syntax tree (a leaf has height 1)."""
    return term.height


def term_size(term: Term) -> int:
    """Number of nodes in the syntax tree."""
    return term.size


def fresh_name(base: str, taken: Iterable[str]) -> str:
    """A name starting with ``base`` that is not in ``taken``."""
    taken_set = set(taken)
    if base not in taken_set:
        return base
    index = 1
    while f"{base}!{index}" in taken_set:
        index += 1
    return f"{base}!{index}"
