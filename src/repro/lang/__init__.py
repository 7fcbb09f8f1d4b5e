"""Core term language for CLIA (conditional linear integer arithmetic).

This package provides the shared abstract syntax used by every layer of the
reproduction: the SyGuS front-end, the SMT substrate, the synthesis engines
and the baselines.  Terms are immutable and hash-consed, so structural
equality is pointer equality and terms can be used freely as dictionary keys.
"""

from repro.lang.sorts import BOOL, INT, Sort
from repro.lang.ast import Kind, Term
from repro.lang.builders import (
    add,
    and_,
    apply_fn,
    bool_const,
    bool_var,
    distinct,
    eq,
    false,
    ge,
    gt,
    iff,
    implies,
    int_const,
    int_var,
    ite,
    le,
    lt,
    mul,
    neg,
    not_,
    or_,
    sub,
    true,
    var,
)
from repro.lang.evaluator import EvaluationError, evaluate
from repro.lang.printer import to_sexpr
from repro.lang.sexpr import SExprError, parse_all_sexprs, parse_sexpr
from repro.lang.simplify import simplify
from repro.lang.traversal import (
    contains_app,
    free_vars,
    subexpressions,
    substitute,
    substitute_apps,
)

__all__ = [
    "BOOL",
    "INT",
    "Sort",
    "Kind",
    "Term",
    "add",
    "and_",
    "apply_fn",
    "bool_const",
    "bool_var",
    "distinct",
    "eq",
    "false",
    "ge",
    "gt",
    "iff",
    "implies",
    "int_const",
    "int_var",
    "ite",
    "le",
    "lt",
    "mul",
    "neg",
    "not_",
    "or_",
    "sub",
    "true",
    "var",
    "EvaluationError",
    "evaluate",
    "to_sexpr",
    "SExprError",
    "parse_all_sexprs",
    "parse_sexpr",
    "simplify",
    "contains_app",
    "free_vars",
    "subexpressions",
    "substitute",
    "substitute_apps",
]
