"""Parser for the SyGuS-IF interchange format (the CLIA-relevant subset).

Supports both the v1 and v2 concrete syntaxes for the commands used by the
paper's benchmark tracks: ``set-logic``, ``declare-var``,
``declare-primed-var``, ``define-fun``, ``synth-fun`` (with or without a
grammar), ``synth-inv``, ``constraint``, ``inv-constraint`` and
``check-synth``.  ``let`` terms are rejected, matching the paper's exclusion
of let-macro benchmarks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.lang.ast import Term
from repro.lang.builders import (
    add,
    and_,
    apply_fn,
    bool_const,
    eq,
    ge,
    gt,
    implies,
    int_const,
    ite,
    le,
    lt,
    mul,
    neg,
    not_,
    or_,
    sub,
    var,
)
from repro.lang.sexpr import SExpr, parse_all_sexprs
from repro.lang.sorts import BOOL, INT, Sort
from repro.sygus.grammar import (
    Grammar,
    InterpretedFunction,
    any_const,
    clia_grammar,
    nonterminal,
)
from repro.sygus.problem import InvariantProblem, SygusProblem, SynthFun


class SygusParseError(Exception):
    """Raised on unsupported or malformed SyGuS input."""


def _parse_sort(token: SExpr) -> Sort:
    if token == "Int":
        return INT
    if token == "Bool":
        return BOOL
    raise SygusParseError(f"unsupported sort {token!r}")


def _parse_params(sexpr: SExpr) -> Tuple[Term, ...]:
    if not isinstance(sexpr, list):
        raise SygusParseError(f"expected parameter list, got {sexpr!r}")
    params = []
    for item in sexpr:
        if not (isinstance(item, list) and len(item) == 2):
            raise SygusParseError(f"bad parameter {item!r}")
        params.append(var(item[0], _parse_sort(item[1])))
    return tuple(params)


class _Context:
    """Symbol tables accumulated while reading a file."""

    def __init__(self) -> None:
        self.variables: Dict[str, Term] = {}
        self.defined: Dict[str, InterpretedFunction] = {}
        self.synth_funs: List[SynthFun] = []
        self.constraints: List[Term] = []
        self.invariant: Optional[InvariantProblem] = None
        self.has_explicit_grammar = False
        self.is_inv_track = False

    @property
    def synth_fun(self) -> Optional[SynthFun]:
        return self.synth_funs[-1] if self.synth_funs else None

    def parse_term(
        self,
        sexpr: SExpr,
        scope: Dict[str, Term],
        inline_defined: bool = True,
    ) -> Term:
        if isinstance(sexpr, str):
            return self._parse_atom(sexpr, scope)
        if not sexpr:
            raise SygusParseError("empty term")
        head = sexpr[0]
        if not isinstance(head, str):
            raise SygusParseError(f"bad operator {head!r}")
        if head == "let":
            raise SygusParseError("let-terms are not supported (as in the paper)")
        args = [self.parse_term(a, scope, inline_defined) for a in sexpr[1:]]
        if not inline_defined and head in self.defined:
            # Inside grammar productions, defined functions stay as operator
            # applications (they are the grammar's interpreted functions).
            return apply_fn(head, args, self.defined[head].return_sort)
        return self._apply_operator(head, args)

    def _parse_atom(self, token: str, scope: Dict[str, Term]) -> Term:
        if token == "true":
            return bool_const(True)
        if token == "false":
            return bool_const(False)
        if token.lstrip("-").isdigit():
            return int_const(int(token))
        if token in scope:
            return scope[token]
        if token in self.variables:
            return self.variables[token]
        if token in self.defined and not self.defined[token].params:
            return self.defined[token].body
        raise SygusParseError(f"unknown symbol {token!r}")

    def _apply_operator(self, head: str, args: List[Term]) -> Term:
        if head == "+":
            return add(*args)
        if head == "-":
            if len(args) == 1:
                return neg(args[0])
            result = args[0]
            for arg in args[1:]:
                result = sub(result, arg)
            return result
        if head == "*":
            result = args[0]
            for arg in args[1:]:
                result = mul(result, arg)
            return result
        if head == "ite":
            return ite(*args)
        if head == "and":
            return and_(*args)
        if head == "or":
            return or_(*args)
        if head == "not":
            return not_(args[0])
        if head == "=>":
            result = args[-1]
            for arg in reversed(args[:-1]):
                result = implies(arg, result)
            return result
        if head == "=":
            return eq(args[0], args[1])
        if head == ">=":
            return ge(args[0], args[1])
        if head == ">":
            return gt(args[0], args[1])
        if head == "<=":
            return le(args[0], args[1])
        if head == "<":
            return lt(args[0], args[1])
        if head in self.defined:
            return self.defined[head].instantiate(args)
        for fun in self.synth_funs:
            if head == fun.name:
                return fun.apply(args)
        raise SygusParseError(f"unknown operator {head!r}")

    # -- Grammar parsing --------------------------------------------------------

    def parse_grammar(
        self, params: Tuple[Term, ...], groups: Sequence[SExpr]
    ) -> Grammar:
        """Parse v1/v2 grammar blocks attached to a synth-fun."""
        self.has_explicit_grammar = True
        # v2 ships two lists (declarations + rules); v1 ships one.
        if (
            len(groups) == 2
            and isinstance(groups[0], list)
            and groups[0]
            and isinstance(groups[0][0], list)
            and len(groups[0][0]) == 2
        ):
            rule_groups = groups[1]
        else:
            rule_groups = groups[0]
        if not isinstance(rule_groups, list):
            raise SygusParseError("bad grammar block")
        nonterminals: Dict[str, Sort] = {}
        raw_rules: List[Tuple[str, List[SExpr]]] = []
        for group in rule_groups:
            if not (isinstance(group, list) and len(group) == 3):
                raise SygusParseError(f"bad grammar group {group!r}")
            nt_name, sort_token, rhs_list = group
            nonterminals[nt_name] = _parse_sort(sort_token)
            if not isinstance(rhs_list, list):
                raise SygusParseError(f"bad production list {rhs_list!r}")
            raw_rules.append((nt_name, rhs_list))
        start = raw_rules[0][0]
        scope: Dict[str, Term] = {p.payload: p for p in params}
        for nt_name, sort in nonterminals.items():
            scope[nt_name] = nonterminal(nt_name, sort)
        productions: Dict[str, List[Term]] = {}
        for nt_name, rhs_list in raw_rules:
            rules: List[Term] = []
            for rhs in rhs_list:
                if (
                    isinstance(rhs, list)
                    and len(rhs) == 2
                    and rhs[0] == "Constant"
                ):
                    rules.append(any_const())
                    continue
                if isinstance(rhs, list) and len(rhs) == 2 and rhs[0] == "Variable":
                    sort = _parse_sort(rhs[1])
                    rules.extend(p for p in params if p.sort is sort)
                    continue
                rules.append(self.parse_term(rhs, scope, inline_defined=False))
            productions[nt_name] = rules
        return Grammar(
            nonterminals=nonterminals,
            start=start,
            productions=productions,
            interpreted={
                name: func
                for name, func in self.defined.items()
                if _grammar_mentions(productions, name)
            },
            params=params,
        )


def _grammar_mentions(productions: Dict[str, List[Term]], name: str) -> bool:
    from repro.lang.traversal import contains_app

    return any(
        contains_app(rhs, name) for rules in productions.values() for rhs in rules
    )


def parse_sygus_text(text: str, name: str = "unnamed") -> SygusProblem:
    """Parse SyGuS-IF source text into a :class:`SygusProblem`."""
    ctx = _Context()
    for command in parse_all_sexprs(text):
        _process_command(ctx, command)
    if ctx.synth_fun is None:
        raise SygusParseError("no synth-fun/synth-inv command found")
    spec = and_(*ctx.constraints) if ctx.constraints else bool_const(True)
    track = "INV" if ctx.is_inv_track else (
        "General" if ctx.has_explicit_grammar else "CLIA"
    )
    if len(ctx.synth_funs) > 1:
        from repro.sygus.multi import MultiSygusProblem

        return MultiSygusProblem(
            synth_funs=tuple(ctx.synth_funs),
            spec=spec,
            variables=tuple(ctx.variables.values()),
            track=track,
            name=name,
        )
    return SygusProblem(
        synth_fun=ctx.synth_fun,
        spec=spec,
        variables=tuple(ctx.variables.values()),
        track=track,
        name=name,
        invariant=ctx.invariant,
    )


def parse_sygus_file(path: str) -> SygusProblem:
    """Parse a ``.sl`` file."""
    with open(path) as handle:
        text = handle.read()
    import os

    return parse_sygus_text(text, name=os.path.basename(path))


def _process_command(ctx: _Context, command: SExpr) -> None:
    if not isinstance(command, list) or not command:
        raise SygusParseError(f"bad command {command!r}")
    head = command[0]
    if head in ("set-logic", "check-synth", "set-option", "set-info"):
        return
    if head == "declare-var":
        _, name, sort_token = command
        ctx.variables[name] = var(name, _parse_sort(sort_token))
        return
    if head == "declare-primed-var":
        _, name, sort_token = command
        sort = _parse_sort(sort_token)
        ctx.variables[name] = var(name, sort)
        ctx.variables[name + "!"] = var(name + "!", sort)
        return
    if head == "define-fun":
        _, name, params_sexpr, sort_token, body_sexpr = command
        params = _parse_params(params_sexpr)
        scope = {p.payload: p for p in params}
        body = ctx.parse_term(body_sexpr, scope)
        expected = _parse_sort(sort_token)
        if body.sort is not expected:
            raise SygusParseError(f"define-fun {name} body sort mismatch")
        ctx.defined[name] = InterpretedFunction(name, params, body)
        return
    if head == "synth-fun":
        name = command[1]
        params = _parse_params(command[2])
        return_sort = _parse_sort(command[3])
        if len(command) > 4:
            grammar = ctx.parse_grammar(params, command[4:])
        else:
            grammar = clia_grammar(params, start_sort=return_sort)
        ctx.synth_funs.append(SynthFun(name, params, return_sort, grammar))
        return
    if head == "synth-inv":
        name = command[1]
        params = _parse_params(command[2])
        grammar = clia_grammar(params, start_sort=BOOL)
        ctx.synth_funs.append(SynthFun(name, params, BOOL, grammar))
        ctx.is_inv_track = True
        return
    if head == "constraint":
        scope: Dict[str, Term] = {}
        ctx.constraints.append(ctx.parse_term(command[1], scope))
        return
    if head == "inv-constraint":
        _expand_inv_constraint(ctx, command)
        return
    raise SygusParseError(f"unsupported command {head!r}")


def _expand_inv_constraint(ctx: _Context, command: SExpr) -> None:
    """Expand ``(inv-constraint inv pre trans post)`` into the three implications."""
    _, inv_name, pre_name, trans_name, post_name = command
    if ctx.synth_fun is None or ctx.synth_fun.name != inv_name:
        raise SygusParseError(f"inv-constraint for unknown function {inv_name!r}")
    ctx.is_inv_track = True
    pre = ctx.defined[pre_name]
    trans = ctx.defined[trans_name]
    post = ctx.defined[post_name]
    inv = ctx.synth_fun
    n = inv.arity
    if len(trans.params) != 2 * n:
        raise SygusParseError("trans function must take current and primed state")
    current = list(trans.params[:n])
    primed = list(trans.params[n:])
    for v in current + primed:
        ctx.variables.setdefault(v.payload, v)
    spec_parts = [
        implies(pre.instantiate(current), inv.apply(current)),
        implies(
            and_(inv.apply(current), trans.instantiate(current + primed)),
            inv.apply(primed),
        ),
        implies(inv.apply(current), post.instantiate(current)),
    ]
    ctx.constraints.extend(spec_parts)
    ctx.invariant = InvariantProblem(
        variables=tuple(current),
        pre=pre.instantiate(current),
        trans=_rename_primed(trans.instantiate(current + primed), current, primed),
        post=post.instantiate(current),
        name=inv_name,
    )


def _rename_primed(term: Term, current: List[Term], primed: List[Term]) -> Term:
    """Rename the trans-fun's primed params to the canonical ``x!`` names."""
    from repro.lang.traversal import substitute

    mapping = {
        p: InvariantProblem.primed(c) for c, p in zip(current, primed)
    }
    return substitute(term, mapping)
