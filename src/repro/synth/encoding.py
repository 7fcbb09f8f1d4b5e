"""Symbolic candidate encodings for fixed-height synthesis (Section 5.2).

Two encoders live here; they and
:class:`~repro.synth.affine_encoding.AffineSpineEncoder` (for operator
grammars such as ``G_qm``) implement a common duck-typed interface:

- :class:`CliaTreeEncoder` — the decision-tree-normal-form encoding for the
  full CLIA grammar (Figures 5 and 6): a candidate is a vector of unknown
  integer coefficients; interpreting it on a concrete input is linear in the
  unknowns, so each CEGIS inductive query is one QF_LIA SMT call.

- :class:`GeneralGrammarEncoder` — the paper's "extension to general
  grammar": a full k-ary tree whose nodes carry integer *selector* unknowns
  choosing a production of the user grammar; node values on a concrete input
  are defined by guarded equations, again QF_LIA.

Each encoder is built from one ``SynthFun``, a height and a variable-name
prefix; :func:`~repro.synth.fixed_height.make_encoder` picks the encoder
for a synth-fun's grammar, and a fixed-height session builds one per
synth-fun of its problem, each under its own prefix.  The interface:

``static_constraints(c, d)`` -> Term bounding/structuring the unknowns,
                                coefficients by ``c`` and constants by ``d``
``has_const_unknowns``       -> whether the constant bound ``d`` matters
``app_instance(values)``     -> symbolic Term for ``f(values)`` plus side
                                constraints
``decode(model, params)``    -> candidate body Term
``initial_candidate()``      -> a syntactically valid starter candidate
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.lang.ast import Kind, Term
from repro.lang.builders import (
    and_,
    bool_var,
    eq,
    ge,
    iff,
    implies,
    int_const,
    int_var,
    le,
    not_,
    or_,
)
from repro.lang.simplify import simplify
from repro.lang.sorts import BOOL, INT, Sort
from repro.lang.traversal import substitute
from repro.sygus.grammar import (
    Grammar,
    is_any_const_ref,
    is_nonterminal_ref,
    ref_name,
)
from repro.sygus.problem import SynthFun
from repro.synth.decision_tree import TreeShape


class EncodingUnsupported(Exception):
    """The grammar cannot be encoded symbolically (e.g. nonlinear ops)."""


def grammar_is_full_clia(grammar: Grammar) -> bool:
    """Heuristic test that a grammar is (a superset of) ``G_CLIA``.

    Needed features: every Int parameter, arbitrary constants, addition and
    subtraction, ``ite`` over a Bool nonterminal that can compare Int
    nonterminals.  Grammars built by :func:`repro.sygus.grammar.clia_grammar`
    qualify; restricted user grammars generally do not.
    """
    int_nts = [n for n, s in grammar.nonterminals.items() if s is INT]
    bool_nts = [n for n, s in grammar.nonterminals.items() if s is BOOL]
    if not int_nts or not bool_nts:
        return False
    for nt in int_nts:
        rules = grammar.productions.get(nt, [])
        has_const = any(is_any_const_ref(r) for r in rules)
        has_params = all(
            any(r is p for r in rules)
            for p in grammar.params
            if p.sort is INT
        )
        has_add = any(r.kind is Kind.ADD for r in rules)
        has_sub = any(r.kind is Kind.SUB for r in rules)
        has_ite = any(r.kind is Kind.ITE for r in rules)
        if has_const and has_params and has_add and has_sub and (
            has_ite or grammar.start_sort is BOOL or nt != grammar.start
        ):
            comparison_ok = any(
                any(
                    r.kind in (Kind.GE, Kind.LE, Kind.LT, Kind.GT, Kind.EQ)
                    for r in grammar.productions.get(bnt, [])
                )
                for bnt in bool_nts
            )
            if comparison_ok:
                return True
    return False


class CliaTreeEncoder:
    """Decision-tree-normal-form encoder for ``G_CLIA`` candidates."""

    def __init__(self, synth_fun: SynthFun, height: int, prefix: str = "dt"):
        int_params = [p for p in synth_fun.params if p.sort is INT]
        if len(int_params) != len(synth_fun.params):
            raise EncodingUnsupported("Bool parameters are not supported")
        self.synth_fun = synth_fun
        self.shape = TreeShape(prefix, height, len(int_params), synth_fun.return_sort)

    def static_constraints(self, coeff_bound: int, const_bound: int) -> Term:
        parts: List[Term] = []
        for node in range(self.shape.nodes):
            for j in range(self.shape.arity):
                c = int_var(
                    f"{self.shape.prefix}!c{node}_{j}"
                )
                parts.append(ge(c, -coeff_bound))
                parts.append(le(c, coeff_bound))
            d = int_var(f"{self.shape.prefix}!d{node}")
            parts.append(ge(d, -const_bound))
            parts.append(le(d, const_bound))
        return and_(*parts)

    #: The constant bound is always relevant for decision trees (d_i unknowns).
    has_const_unknowns = True

    def app_instance(self, arg_values: Sequence[int]) -> Tuple[Term, Term]:
        from repro.lang.builders import true

        return self.shape.interpret(arg_values), true()

    def decode(self, model: Dict[str, int], params: Sequence[Term]) -> Term:
        return self.shape.decode(model, params)

    def initial_candidate(self) -> Term:
        if self.synth_fun.return_sort is INT:
            return int_const(0)
        return ge(int_const(0), int_const(0))


class GeneralGrammarEncoder:
    """Selector-based encoder for arbitrary expression grammars.

    The candidate is a full k-ary derivation tree of height ``h`` (k = the
    maximum production arity).  Each (node, nonterminal) pair has an integer
    selector choosing one production; terminal productions are allowed at any
    node (so all heights <= h are covered and the minimal-height guarantee of
    height enumeration is preserved).  Arbitrary-constant placeholders become
    shared integer unknowns.
    """

    def __init__(self, synth_fun: SynthFun, height: int, prefix: str = "gg"):
        self.synth_fun = synth_fun
        self.grammar = synth_fun.grammar
        self.height = height
        self.prefix = prefix
        self._instances = 0
        self.arity = self._max_production_arity()
        self.num_nodes = self._count_nodes()
        self._validate()

    # -- Shape -------------------------------------------------------------------

    def _max_production_arity(self) -> int:
        arity = 1
        for rules in self.grammar.productions.values():
            for rhs in rules:
                arity = max(arity, _count_refs(rhs))
        return arity

    def _count_nodes(self) -> int:
        k = self.arity
        if k == 1:
            return self.height
        return (k**self.height - 1) // (k - 1)

    def _children(self, node: int) -> List[int]:
        return [self.arity * node + 1 + j for j in range(self.arity)]

    def _is_internal(self, node: int) -> bool:
        return self.arity * node + 1 < self.num_nodes

    def _validate(self) -> None:
        for nt, rules in self.grammar.productions.items():
            if not rules:
                raise EncodingUnsupported(f"nonterminal {nt} has no productions")
            for rhs in rules:
                _check_encodable(rhs)
        for nt in self.grammar.nonterminals:
            if not any(
                _count_refs(r) == 0 for r in self.grammar.productions.get(nt, [])
            ):
                raise EncodingUnsupported(
                    f"nonterminal {nt} has no terminal production"
                )

    # -- Unknowns -------------------------------------------------------------------

    def _selector(self, node: int, nt: str, prod: int) -> Term:
        """Boolean one-hot selector: node chooses production ``prod`` of ``nt``.

        Keeping selection in the boolean skeleton (rather than as integer
        equalities) lets the CDCL core drive the production search directly,
        which is dramatically faster in the lazy DPLL(T) loop.
        """
        return bool_var(f"{self.prefix}!s{node}_{nt}_{prod}")

    def _const_unknown(self, node: int, nt: str, prod: int, occ: int) -> Term:
        return int_var(f"{self.prefix}!k{node}_{nt}_{prod}_{occ}")

    def _value_var(self, node: int, nt: str, instance: int, sort: Sort) -> Term:
        name = f"{self.prefix}!v{node}_{nt}_{instance}"
        return int_var(name) if sort is INT else bool_var(name)

    def _allowed_productions(self, node: int, nt: str) -> List[int]:
        rules = self.grammar.productions[nt]
        return [
            idx
            for idx, rhs in enumerate(rules)
            if self._is_internal(node) or _count_refs(rhs) == 0
        ]

    @property
    def has_const_unknowns(self) -> bool:
        return any(
            _count_any_consts(rhs) > 0
            for rules in self.grammar.productions.values()
            for rhs in rules
        )

    def static_constraints(self, coeff_bound: int, const_bound: int) -> Term:
        parts: List[Term] = []
        for node in range(self.num_nodes):
            for nt, rules in self.grammar.productions.items():
                allowed = self._allowed_productions(node, nt)
                selectors = [self._selector(node, nt, idx) for idx in allowed]
                parts.append(or_(*selectors))
                for i in range(len(selectors)):
                    for j in range(i + 1, len(selectors)):
                        parts.append(or_(not_(selectors[i]), not_(selectors[j])))
                forbidden = [
                    idx for idx in range(len(rules)) if idx not in allowed
                ]
                for idx in forbidden:
                    parts.append(not_(self._selector(node, nt, idx)))
                for idx, rhs in enumerate(rules):
                    for occ in range(_count_any_consts(rhs)):
                        k = self._const_unknown(node, nt, idx, occ)
                        parts.append(ge(k, -const_bound))
                        parts.append(le(k, const_bound))
        return and_(*parts)

    # -- Symbolic interpretation ---------------------------------------------------

    def app_instance(self, arg_values: Sequence[int]) -> Tuple[Term, Term]:
        """Returns ``(value term, side constraints)`` for one invocation.

        The value term is the root node's value variable; the side
        constraints define every node value by guarded equations.
        """
        if len(arg_values) != len(self.synth_fun.params):
            raise ValueError("wrong number of argument values")
        instance = self._instances
        self._instances += 1
        env = {
            p: int_const(int(v))
            for p, v in zip(self.synth_fun.params, arg_values)
        }
        parts: List[Term] = []
        for node in range(self.num_nodes):
            for nt, rules in self.grammar.productions.items():
                sort = self.grammar.nonterminals[nt]
                value = self._value_var(node, nt, instance, sort)
                for idx, rhs in enumerate(rules):
                    if not self._is_internal(node) and _count_refs(rhs) > 0:
                        continue
                    interp = self._interpret_rhs(rhs, node, nt, idx, instance, env)
                    equal = (
                        eq(value, interp) if sort is INT else iff(value, interp)
                    )
                    parts.append(implies(self._selector(node, nt, idx), equal))
        root_sort = self.grammar.start_sort
        root_value = self._value_var(0, self.grammar.start, instance, root_sort)
        return root_value, and_(*parts)

    def _interpret_rhs(
        self,
        rhs: Term,
        node: int,
        nt: str,
        prod_index: int,
        instance: int,
        env: Dict[Term, Term],
    ) -> Term:
        children = self._children(node)
        state = {"ref": 0, "const": 0}

        def build(t: Term) -> Term:
            if is_nonterminal_ref(t):
                child = children[state["ref"]]
                state["ref"] += 1
                child_nt = ref_name(t)
                child_sort = self.grammar.nonterminals[child_nt]
                return self._value_var(child, child_nt, instance, child_sort)
            if is_any_const_ref(t):
                k = self._const_unknown(node, nt, prod_index, state["const"])
                state["const"] += 1
                return k
            if t in env:
                return env[t]
            if t.kind is Kind.APP:
                from repro.sygus.grammar import expand_interpreted

                func = self.grammar.interpreted.get(t.payload)  # type: ignore[arg-type]
                if func is None:
                    raise EncodingUnsupported(f"unknown function {t.payload!r}")
                actuals = [build(a) for a in t.args]
                return expand_interpreted(
                    func.instantiate(actuals), self.grammar.interpreted
                )
            if not t.args:
                return t
            return Term.make(t.kind, tuple(build(a) for a in t.args), t.payload, t.sort)

        return build(rhs)

    # -- Decoding ---------------------------------------------------------------------

    def decode(self, model: Dict[str, int], params: Sequence[Term]) -> Term:
        substitution = dict(zip(self.synth_fun.params, params))

        def build(node: int, nt: str) -> Term:
            rules = self.grammar.productions[nt]
            selector_value = 0
            for idx in range(len(rules)):
                if model.get(f"{self.prefix}!s{node}_{nt}_{idx}", False):
                    selector_value = idx
                    break
            rhs = rules[selector_value]
            children = self._children(node)
            state = {"ref": 0, "const": 0}

            def instantiate(t: Term) -> Term:
                if is_nonterminal_ref(t):
                    child = children[state["ref"]]
                    state["ref"] += 1
                    return build(child, ref_name(t))
                if is_any_const_ref(t):
                    name = (
                        f"{self.prefix}!k{node}_{nt}_{selector_value}_{state['const']}"
                    )
                    state["const"] += 1
                    return int_const(int(model.get(name, 0)))
                if t in substitution:
                    return substitution[t]
                if not t.args:
                    return t
                return Term.make(
                    t.kind, tuple(instantiate(a) for a in t.args), t.payload, t.sort
                )

            return instantiate(rhs)

        return simplify(build(0, self.grammar.start))

    def initial_candidate(self) -> Term:
        """Smallest derivable term: follow first terminal productions."""

        def terminal_of(nt: str) -> Term:
            for rhs in self.grammar.productions[nt]:
                if _count_refs(rhs) == 0:
                    if is_any_const_ref(rhs):
                        return int_const(0)
                    return rhs
            raise EncodingUnsupported(f"no terminal production for {nt}")

        body = terminal_of(self.grammar.start)
        return substitute(body, dict(zip(self.grammar.params, self.synth_fun.params)))


def _count_refs(rhs: Term) -> int:
    if is_nonterminal_ref(rhs):
        return 1
    if not rhs.args:
        return 0
    return sum(_count_refs(a) for a in rhs.args)


def _count_any_consts(rhs: Term) -> int:
    if is_any_const_ref(rhs):
        return 1
    if not rhs.args:
        return 0
    return sum(_count_any_consts(a) for a in rhs.args)


def _check_encodable(rhs: Term) -> None:
    if rhs.kind is Kind.MUL:
        left_refs = _count_refs(rhs.args[0])
        right_refs = _count_refs(rhs.args[1])
        if left_refs and right_refs:
            raise EncodingUnsupported("nonlinear production (product of nonterminals)")
    for arg in rhs.args:
        _check_encodable(arg)
