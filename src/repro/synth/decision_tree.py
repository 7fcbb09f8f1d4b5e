"""Decision-tree normal form for CLIA functions (Figure 5 of the paper).

A height-``h`` decision tree is a full binary tree with ``2^h - 1`` nodes.
Node ``i``'s children are ``2i+1`` and ``2i+2``.  Every node carries an
integer coefficient vector ``c_i`` (one entry per function parameter) and a
constant ``d_i``.  Internal nodes test ``c_i . x + d_i >= 0``; leaves return
``c_i . x + d_i`` (for Int-valued functions) or the atom ``c_i . x + d_i >= 0``
itself (for Bool-valued functions, as used by the INV track).

The module provides both directions: interpreting unknown-coefficient trees
symbolically on concrete inputs (the ``interpret_h`` function of Section 5.2)
and converting a solved coefficient assignment back into a CLIA term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence

from repro.lang.ast import Term
from repro.lang.builders import add, ge, int_const, int_var, ite, mul
from repro.lang.simplify import simplify
from repro.lang.sorts import INT, Sort


def num_nodes(height: int) -> int:
    """Number of nodes of a full binary tree of the given height."""
    if height < 1:
        raise ValueError("height must be at least 1")
    return (1 << height) - 1


def num_internal(height: int) -> int:
    """Number of internal (decision) nodes."""
    return (1 << (height - 1)) - 1


def coeff_name(prefix: str, node: int, param_index: int) -> str:
    """Name of the unknown coefficient ``c_{node}[param_index]``."""
    return f"{prefix}!c{node}_{param_index}"


def const_name(prefix: str, node: int) -> str:
    """Name of the unknown constant ``d_{node}``."""
    return f"{prefix}!d{node}"


@dataclass(frozen=True)
class TreeShape:
    """Static shape of a decision tree: height, arity, and unknown names."""

    prefix: str
    height: int
    arity: int
    return_sort: Sort

    @property
    def nodes(self) -> int:
        return num_nodes(self.height)

    @property
    def internal(self) -> int:
        return num_internal(self.height)

    # -- Symbolic interpretation (interpret_h) --------------------------------

    def node_affine(self, node: int, arg_values: Sequence[int]) -> Term:
        """``c_node . args + d_node`` with concrete args: linear in unknowns."""
        parts: List[Term] = []
        for j, value in enumerate(arg_values):
            if value == 0:
                continue
            coeff = int_var(coeff_name(self.prefix, node, j))
            parts.append(coeff if value == 1 else mul(int(value), coeff))
        parts.append(int_var(const_name(self.prefix, node)))
        return add(*parts) if len(parts) > 1 else parts[0]

    def interpret(self, arg_values: Sequence[int]) -> Term:
        """The symbolic value of the tree on concrete ``arg_values``.

        Int-sorted result for Int functions; a Bool formula for predicates.
        """
        if len(arg_values) != self.arity:
            raise ValueError("wrong number of argument values")

        def node_term(node: int) -> Term:
            affine = self.node_affine(node, arg_values)
            if node >= self.internal:
                return affine if self.return_sort is INT else ge(affine, 0)
            condition = ge(affine, 0)
            return ite(condition, node_term(2 * node + 1), node_term(2 * node + 2))

        return node_term(0)

    # -- Decoding ----------------------------------------------------------------

    def decode(self, model: Mapping[str, int], params: Sequence[Term]) -> Term:
        """Rebuild the synthesized function body from an SMT model."""
        if len(params) != self.arity:
            raise ValueError("wrong number of parameters")

        def affine_term(node: int) -> Term:
            parts: List[Term] = []
            for j, param in enumerate(params):
                coeff = model.get(coeff_name(self.prefix, node, j), 0)
                if coeff == 0:
                    continue
                parts.append(param if coeff == 1 else mul(int(coeff), param))
            constant = model.get(const_name(self.prefix, node), 0)
            if constant != 0 or not parts:
                parts.append(int_const(int(constant)))
            return add(*parts) if len(parts) > 1 else parts[0]

        def node_term(node: int) -> Term:
            affine = affine_term(node)
            if node >= self.internal:
                return affine if self.return_sort is INT else ge(affine, 0)
            condition = ge(affine, 0)
            return ite(condition, node_term(2 * node + 1), node_term(2 * node + 2))

        return simplify(node_term(0))
