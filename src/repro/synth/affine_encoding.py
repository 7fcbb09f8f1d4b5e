"""The paper's adapted ``interpret_h`` for operator grammars (Section 5.2).

For a grammar like ``G_qm`` — one Int nonterminal closed under ``+``/``-``
with extra interpreted operators such as ``qm`` — the paper interprets a
fixed-height tree whose *internal nodes apply the grammar's operators* and
whose *leaves are affine vectors* ``c . x + d`` (the Figure 6 representation
adapted to ``qm`` in the text).  This is dramatically more compact than a
raw production tree: the affine closure of ``+``/``-`` collapses all the
bookkeeping levels of the derivation.

Every node value here is ``c_v . x + d_v + sum_j t_j`` where each ``t_j`` is
``-u_j``, ``0`` or ``+u_j`` (one-hot weight selectors) and ``u_j`` applies a
selected interpreted operator to the child values.  On a concrete input
vector everything is linear in the unknowns, so inductive synthesis stays a
single QF_LIA query.

Grammar membership is preserved because integer-coefficient affine forms are
derivable via repeated addition/subtraction in any grammar closed under
``+``/``-`` with the constants 0 and 1 (``decode`` rebuilds terms that are
literal grammar members).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.lang.ast import Kind, Term
from repro.lang.builders import (
    add,
    and_,
    bool_var,
    eq,
    ge,
    implies,
    int_const,
    int_var,
    le,
    mul,
    neg,
    not_,
    or_,
    sub,
)
from repro.lang.simplify import simplify
from repro.lang.sorts import INT
from repro.sygus.grammar import (
    Grammar,
    InterpretedFunction,
    expand_interpreted,
    is_any_const_ref,
    is_nonterminal_ref,
)
from repro.sygus.problem import SynthFun
from repro.synth.encoding import EncodingUnsupported


def affine_operator_view(grammar: Grammar) -> Optional[List[InterpretedFunction]]:
    """If the grammar is a single Int nonterminal closed under +/- with
    interpreted operators, return those operators; otherwise None."""
    if len(grammar.nonterminals) != 1:
        return None
    (nt_name, nt_sort), = grammar.nonterminals.items()
    if nt_sort is not INT:
        return None
    rules = grammar.productions.get(nt_name, [])
    has_add = has_sub = has_one = has_zero = False
    operators: List[InterpretedFunction] = []
    params = set(grammar.params)
    for rhs in rules:
        if is_any_const_ref(rhs):
            has_one = has_zero = True
        elif rhs.kind is Kind.CONST:
            if rhs.payload == 1:
                has_one = True
            elif rhs.payload == 0:
                has_zero = True
        elif rhs.kind is Kind.VAR and rhs in params:
            continue
        elif rhs.kind is Kind.ADD and all(is_nonterminal_ref(a) for a in rhs.args):
            has_add = True
        elif rhs.kind is Kind.SUB and all(is_nonterminal_ref(a) for a in rhs.args):
            has_sub = True
        elif rhs.kind is Kind.APP and all(is_nonterminal_ref(a) for a in rhs.args):
            func = grammar.interpreted.get(rhs.payload)  # type: ignore[arg-type]
            if func is None:
                return None
            operators.append(func)
        else:
            return None
    if not (has_add and has_sub and has_one and has_zero):
        return None
    int_params = [p for p in grammar.params if p.sort is INT]
    if not all(any(r is p for r in rules) for p in int_params):
        return None
    if not operators:
        return None
    return operators


class AffineSpineEncoder:
    """Fixed-height encoder: operator applications over affine leaves."""

    #: Constant bounds matter (the d unknowns).
    has_const_unknowns = True

    def __init__(self, synth_fun: SynthFun, height: int, prefix: str = "af"):
        operators = affine_operator_view(synth_fun.grammar)
        if operators is None:
            raise EncodingUnsupported("grammar is not an affine operator grammar")
        if synth_fun.return_sort is not INT:
            raise EncodingUnsupported("affine encoding requires an Int synth-fun")
        self.synth_fun = synth_fun
        self.grammar = synth_fun.grammar
        self.operators = operators
        self.height = height
        self.prefix = prefix
        self.arity = max(op.arity for op in operators)
        self.ops_per_node = 1  # one operator application per internal node
        self.num_nodes = self._count_nodes()
        self._instances = 0

    def _count_nodes(self) -> int:
        k = self.arity
        if k == 1:
            return self.height
        return (k**self.height - 1) // (k - 1)

    def _children(self, node: int) -> List[int]:
        return [self.arity * node + 1 + j for j in range(self.arity)]

    def _is_internal(self, node: int) -> bool:
        return self.arity * node + 1 < self.num_nodes

    # -- Unknowns -----------------------------------------------------------------

    def _coeff(self, node: int, param_index: int) -> Term:
        return int_var(f"{self.prefix}!c{node}_{param_index}")

    def _const(self, node: int) -> Term:
        return int_var(f"{self.prefix}!d{node}")

    def _weight_pos(self, node: int) -> Term:
        return bool_var(f"{self.prefix}!wp{node}")

    def _weight_neg(self, node: int) -> Term:
        return bool_var(f"{self.prefix}!wn{node}")

    def _op_selector(self, node: int, op_index: int) -> Term:
        return bool_var(f"{self.prefix}!o{node}_{op_index}")

    def static_constraints(self, coeff_bound: int, const_bound: int) -> Term:
        parts: List[Term] = []
        for node in range(self.num_nodes):
            for j in range(len(self.synth_fun.params)):
                c = self._coeff(node, j)
                parts.append(ge(c, -coeff_bound))
                parts.append(le(c, coeff_bound))
            d = self._const(node)
            parts.append(ge(d, -const_bound))
            parts.append(le(d, const_bound))
            if self._is_internal(node):
                parts.append(
                    or_(not_(self._weight_pos(node)), not_(self._weight_neg(node)))
                )
                selectors = [
                    self._op_selector(node, i) for i in range(len(self.operators))
                ]
                parts.append(or_(*selectors))
                for i in range(len(selectors)):
                    for j in range(i + 1, len(selectors)):
                        parts.append(or_(not_(selectors[i]), not_(selectors[j])))
        return and_(*parts)

    # -- Symbolic interpretation -----------------------------------------------------

    def app_instance(self, arg_values: Sequence[int]) -> Tuple[Term, Term]:
        if len(arg_values) != len(self.synth_fun.params):
            raise ValueError("wrong number of argument values")
        instance = self._instances
        self._instances += 1
        parts: List[Term] = []

        def value_var(node: int) -> Term:
            return int_var(f"{self.prefix}!v{node}_{instance}")

        def op_var(node: int) -> Term:
            return int_var(f"{self.prefix}!u{node}_{instance}")

        for node in range(self.num_nodes):
            affine_parts: List[Term] = []
            for j, concrete in enumerate(arg_values):
                if concrete == 0:
                    continue
                coeff = self._coeff(node, j)
                affine_parts.append(
                    coeff if concrete == 1 else mul(int(concrete), coeff)
                )
            affine_parts.append(self._const(node))
            affine = add(*affine_parts) if len(affine_parts) > 1 else affine_parts[0]
            value = value_var(node)
            if not self._is_internal(node):
                parts.append(eq(value, affine))
                continue
            u = op_var(node)
            children = self._children(node)
            for op_index, op in enumerate(self.operators):
                child_values = [value_var(children[j]) for j in range(op.arity)]
                applied = expand_interpreted(
                    op.instantiate(child_values), self.grammar.interpreted
                )
                parts.append(implies(self._op_selector(node, op_index), eq(u, applied)))
            wp, wn = self._weight_pos(node), self._weight_neg(node)
            parts.append(implies(and_(not_(wp), not_(wn)), eq(value, affine)))
            parts.append(implies(wp, eq(value, add(affine, u))))
            parts.append(implies(wn, eq(value, sub(affine, u))))
        return int_var(f"{self.prefix}!v0_{instance}"), and_(*parts)

    # -- Decoding ---------------------------------------------------------------------

    def decode(self, model: Dict[str, int], params: Sequence[Term]) -> Term:
        substitution = dict(zip(self.synth_fun.params, params))

        def affine_term(node: int) -> Optional[Term]:
            parts: List[Term] = []
            for j, param in enumerate(self.synth_fun.params):
                coeff = int(model.get(f"{self.prefix}!c{node}_{j}", 0))
                target = substitution[param]
                parts.extend(_repeat(target, coeff))
            constant = int(model.get(f"{self.prefix}!d{node}", 0))
            parts.extend(_repeat(int_const(1), constant))
            if not parts:
                return None
            return _chain_add(parts)

        def node_term(node: int) -> Term:
            affine = affine_term(node)
            if not self._is_internal(node):
                return affine if affine is not None else int_const(0)
            wp = model.get(f"{self.prefix}!wp{node}", False)
            wn = model.get(f"{self.prefix}!wn{node}", False)
            if not wp and not wn:
                return affine if affine is not None else int_const(0)
            op_index = 0
            for i in range(len(self.operators)):
                if model.get(f"{self.prefix}!o{node}_{i}", False):
                    op_index = i
                    break
            op = self.operators[op_index]
            children = self._children(node)
            from repro.lang.builders import apply_fn

            applied = apply_fn(
                op.name,
                [node_term(children[j]) for j in range(op.arity)],
                INT,
            )
            if wp:
                return applied if affine is None else add(affine, applied)
            base = affine if affine is not None else int_const(0)
            return sub(base, applied)

        return simplify(node_term(0))

    def initial_candidate(self) -> Term:
        return int_const(0)


def _repeat(term: Term, count: int) -> List[Term]:
    """``count`` copies of ``term`` (negated copies for negative counts)."""
    if count >= 0:
        return [term] * count
    return [neg(term)] * (-count)


def _chain_add(parts: List[Term]) -> Term:
    """Fold parts with binary +/-, staying inside grammars without n-ary +.

    Negations introduced by :func:`_repeat` are turned into subtractions.
    """
    positives = [p for p in parts if p.kind is not Kind.NEG]
    negatives = [p.args[0] for p in parts if p.kind is Kind.NEG]
    if positives:
        result = positives[0]
        for p in positives[1:]:
            result = add(result, p)
    else:
        result = int_const(0)
    for n in negatives:
        result = sub(result, n)
    return result
