"""Expression grammars (Definition 2.6 of the paper).

A grammar's production right-hand sides are ordinary terms in which
*nonterminal placeholders* — variables named ``<N>`` — stand for recursive
positions, and the special placeholder ``<const>`` stands for an arbitrary
integer constant (SyGuS ``(Constant Int)``).

Two grammars from the paper ship as builders: :func:`clia_grammar` (the
standard full CLIA grammar ``G_CLIA`` of Example 2.8) and :func:`qm_grammar`
(``G_qm`` of Example 2.7, the running max3-via-qm example).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lang.ast import Kind, Term
from repro.lang.builders import (
    add,
    and_,
    apply_fn,
    eq,
    ge,
    int_const,
    ite,
    le,
    lt,
    not_,
    or_,
    sub,
    var,
)
from repro.lang.sorts import BOOL, INT, Sort

_NONTERMINAL_PREFIX = "<"
_ANY_CONST_NAME = "<const>"


class AnyConstMarker:
    """Sentinel type for documentation purposes; see :func:`any_const`."""


def nonterminal(name: str, sort: Sort) -> Term:
    """The placeholder variable standing for nonterminal ``name``."""
    return var(f"<{name}>", sort)


def any_const() -> Term:
    """The placeholder matching an arbitrary integer constant."""
    return var(_ANY_CONST_NAME, INT)


def is_nonterminal_ref(term: Term) -> bool:
    return (
        term.kind is Kind.VAR
        and term.payload.startswith(_NONTERMINAL_PREFIX)  # type: ignore[union-attr]
        and term.payload != _ANY_CONST_NAME
    )


def is_any_const_ref(term: Term) -> bool:
    return term.kind is Kind.VAR and term.payload == _ANY_CONST_NAME


def ref_name(term: Term) -> str:
    return term.payload[1:-1]  # type: ignore[index]


@dataclass(frozen=True)
class InterpretedFunction:
    """An interpreted function (Definition 2.4): a name with a CLIA body."""

    name: str
    params: Tuple[Term, ...]
    body: Term

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def return_sort(self) -> Sort:
        return self.body.sort

    def instantiate(self, actuals: Sequence[Term]) -> Term:
        """The body with ``actuals`` substituted for the parameters."""
        from repro.lang.traversal import substitute

        if len(actuals) != len(self.params):
            raise ValueError(f"arity mismatch instantiating {self.name}")
        return substitute(self.body, dict(zip(self.params, actuals)))


@dataclass
class Grammar:
    """An expression grammar ``(T, R, N, S, P)``.

    Attributes:
        nonterminals: maps nonterminal name to its sort.
        start: name of the start symbol.
        productions: maps nonterminal name to its RHS patterns (terms over
            placeholders).
        interpreted: interpreted functions usable in productions (the set R).
        params: the variables the generated expressions may mention.
    """

    nonterminals: Dict[str, Sort]
    start: str
    productions: Dict[str, List[Term]]
    interpreted: Dict[str, InterpretedFunction] = field(default_factory=dict)
    params: Tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        if self.start not in self.nonterminals:
            raise ValueError(f"start symbol {self.start!r} is not a nonterminal")
        for name in self.productions:
            if name not in self.nonterminals:
                raise ValueError(f"productions given for unknown nonterminal {name!r}")

    @property
    def start_sort(self) -> Sort:
        return self.nonterminals[self.start]

    def fingerprint(self) -> Tuple:
        """A hashable structural identity (used to deduplicate subproblems)."""
        return (
            self.start,
            tuple(sorted((n, s.name) for n, s in self.nonterminals.items())),
            tuple(
                (n, tuple(self.productions.get(n, ())))
                for n in sorted(self.productions)
            ),
            tuple(sorted(self.interpreted)),
            self.params,
        )

    def with_interpreted(self, func: InterpretedFunction) -> "Grammar":
        """A copy of this grammar extended with an interpreted function.

        The function becomes available as a production of every nonterminal
        whose sort matches its return sort (the Subterm rule's "add aux to the
        grammar" step).
        """
        grammar = Grammar(
            dict(self.nonterminals),
            self.start,
            {n: list(ps) for n, ps in self.productions.items()},
            dict(self.interpreted),
            self.params,
        )
        grammar.interpreted[func.name] = func
        for nt_name, nt_sort in grammar.nonterminals.items():
            if nt_sort is not func.return_sort:
                continue
            arg_refs = []
            usable = True
            for param in func.params:
                source = self._nonterminal_of_sort(param.sort)
                if source is None:
                    usable = False
                    break
                arg_refs.append(nonterminal(source, param.sort))
            if usable:
                grammar.productions.setdefault(nt_name, []).append(
                    apply_fn(func.name, arg_refs, func.return_sort)
                )
        return grammar

    def _nonterminal_of_sort(self, sort: Sort) -> Optional[str]:
        if self.nonterminals.get(self.start) is sort:
            return self.start
        for name, nt_sort in self.nonterminals.items():
            if nt_sort is sort:
                return name
        return None

    # -- Membership -----------------------------------------------------------

    def generates(self, expr: Term, from_nonterminal: Optional[str] = None) -> bool:
        """Structural membership test: can ``from_nonterminal`` derive ``expr``?

        This is syntactic derivability (no semantic reasoning): constants match
        only explicit constant productions or ``(Constant Int)`` placeholders.
        """
        root = from_nonterminal or self.start
        cache: Dict[Tuple[Term, str], bool] = {}
        in_progress: set = set()

        def derives(t: Term, nt: str) -> bool:
            key = (t, nt)
            hit = cache.get(key)
            if hit is not None:
                return hit
            if key in in_progress:
                return False
            in_progress.add(key)
            result = any(matches(t, rhs) for rhs in self.productions.get(nt, ()))
            in_progress.discard(key)
            cache[key] = result
            return result

        def matches(t: Term, pattern: Term) -> bool:
            if is_nonterminal_ref(pattern):
                return derives(t, ref_name(pattern))
            if is_any_const_ref(pattern):
                return t.kind is Kind.CONST and t.sort is INT
            if pattern.kind is Kind.VAR or pattern.kind is Kind.CONST:
                return t is pattern
            if t.kind is not pattern.kind or t.payload != pattern.payload:
                return False
            if len(t.args) != len(pattern.args):
                # Builders flatten nested n-ary AND/OR/+; re-nest to match
                # the binary production shape.
                if (
                    t.kind in (Kind.ADD, Kind.AND, Kind.OR)
                    and len(pattern.args) == 2
                    and len(t.args) > 2
                ):
                    rest = Term.make(t.kind, t.args[1:], t.payload, t.sort)
                    return matches(t.args[0], pattern.args[0]) and matches(
                        rest, pattern.args[1]
                    )
                return False
            return all(matches(a, p) for a, p in zip(t.args, pattern.args))

        return derives(expr, root)


def minimal_member(grammar: Grammar, from_nonterminal: Optional[str] = None) -> Optional[Term]:
    """A smallest-ish expression derivable from the given nonterminal.

    Prefers terminal productions; otherwise instantiates the first production
    whose recursive positions can themselves be derived (with a cycle guard).
    Returns None for nonterminals that derive nothing.
    """

    def derive(nt: str, visiting: frozenset) -> Optional[Term]:
        if nt in visiting:
            return None
        rules = sorted(
            grammar.productions.get(nt, ()),
            key=lambda rhs: sum(1 for _ in _refs_of(rhs)),
        )
        for rhs in rules:
            built = instantiate(rhs, visiting | {nt})
            if built is not None:
                return built
        return None

    def instantiate(rhs: Term, visiting: frozenset) -> Optional[Term]:
        if is_nonterminal_ref(rhs):
            return derive(ref_name(rhs), visiting)
        if is_any_const_ref(rhs):
            return int_const(0)
        if not rhs.args:
            return rhs
        children = []
        for arg in rhs.args:
            child = instantiate(arg, visiting)
            if child is None:
                return None
            children.append(child)
        return Term.make(rhs.kind, tuple(children), rhs.payload, rhs.sort)

    return derive(from_nonterminal or grammar.start, frozenset())


def _refs_of(rhs: Term):
    if is_nonterminal_ref(rhs):
        yield rhs
        return
    for arg in rhs.args:
        yield from _refs_of(arg)


def expand_interpreted(term: Term, functions: Dict[str, InterpretedFunction]) -> Term:
    """Inline every application of the given interpreted functions, to
    fixpoint (bodies may call other interpreted functions)."""
    from repro.lang.traversal import substitute_apps

    result = term
    for _ in range(64):
        changed = False
        for name, func in functions.items():
            expanded = substitute_apps(result, name, func.params, func.body)
            if expanded is not result:
                result = expanded
                changed = True
        if not changed:
            return result
    raise ValueError("interpreted function expansion did not converge")


def clia_grammar(
    params: Sequence[Term],
    start_sort: Sort = INT,
    constants: Iterable[int] = (0, 1),
    allow_any_const: bool = True,
) -> Grammar:
    """The full CLIA grammar ``G_CLIA`` (Example 2.8) over ``params``.

    ``S`` derives every CLIA integer term, ``B`` every CLIA condition.  When
    ``start_sort`` is Bool the start symbol is ``B`` (used by the INV track).
    """
    s = nonterminal("S", INT)
    b = nonterminal("B", BOOL)
    int_params = [p for p in params if p.sort is INT]
    bool_params = [p for p in params if p.sort is BOOL]
    s_rules: List[Term] = [int_const(c) for c in constants]
    if allow_any_const:
        s_rules.append(any_const())
    s_rules.extend(int_params)
    s_rules.extend([add(s, s), sub(s, s), ite(b, s, s)])
    b_rules: List[Term] = list(bool_params)
    b_rules.extend(
        [ge(s, s), le(s, s), lt(s, s), eq(s, s), not_(b), and_(b, b), or_(b, b)]
    )
    return Grammar(
        nonterminals={"S": INT, "B": BOOL},
        start="S" if start_sort is INT else "B",
        productions={"S": s_rules, "B": b_rules},
        interpreted={},
        params=tuple(params),
    )


def qm_function() -> InterpretedFunction:
    """``qm(x1, x2) = ite(x1 < 0, x2, x1)`` (Example 2.5)."""
    x1, x2 = var("x1", INT), var("x2", INT)
    return InterpretedFunction("qm", (x1, x2), ite(lt(x1, 0), x2, x1))


def qm_grammar(params: Sequence[Term]) -> Grammar:
    """``G_qm`` (Example 2.7): S -> 0 | 1 | x.. | S + S | S - S | qm(S, S)."""
    s = nonterminal("S", INT)
    qm = qm_function()
    rules: List[Term] = [int_const(0), int_const(1)]
    rules.extend(p for p in params if p.sort is INT)
    rules.extend(
        [add(s, s), sub(s, s), apply_fn("qm", (s, s), INT)]
    )
    return Grammar(
        nonterminals={"S": INT},
        start="S",
        productions={"S": rules},
        interpreted={"qm": qm},
        params=tuple(params),
    )
