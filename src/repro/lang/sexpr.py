"""A small s-expression reader shared by the SMT-LIB and SyGuS-IF parsers.

S-expressions are parsed into nested Python lists of strings; numeric
literals stay as strings (the term parser decides how to interpret them).
Comments start with ``;`` and run to end of line.  Whitespace is exactly
space, tab, CR and LF; a string literal runs from ``"`` to the next ``"``
and stays one token, quotes included.
"""

from __future__ import annotations

import re
from typing import List, Tuple, Union

SExpr = Union[str, List["SExpr"]]

# A token fills group 1 and a comment matches with an empty group.  Every
# character but the four whitespace ones starts an alternative, so the
# scan skips exactly the whitespace.  A string literal with no closing
# quote matches to the end of the text, so it can only be the last token.
_TOKEN = re.compile(r'([()]|[^ \t\r\n();"][^ \t\r\n();]*|"[^"]*"?)|;[^\n]*')


class SExprError(Exception):
    """Raised on malformed s-expression input."""


def tokenize(text: str) -> List[str]:
    """Split ``text`` into parenthesis and atom tokens, dropping comments."""
    tokens = list(filter(None, _TOKEN.findall(text)))
    if tokens:
        last = tokens[-1]
        if last[0] == '"' and (len(last) == 1 or last[-1] != '"'):
            raise SExprError("unterminated string literal")
    return tokens


def _read(tokens: List[str], pos: int) -> Tuple[SExpr, int]:
    """The expression starting at ``tokens[pos]`` and the position after it."""
    if pos >= len(tokens):
        raise SExprError("unexpected end of input")
    token = tokens[pos]
    if token != "(":
        if token == ")":
            raise SExprError("unexpected ')'")
        return token, pos + 1
    # Each open list waits on the stack for its ")" while its items fill.
    stack: List[List[SExpr]] = []
    items: List[SExpr] = []
    for pos in range(pos + 1, len(tokens)):
        token = tokens[pos]
        if token == "(":
            stack.append(items)
            items = []
        elif token == ")":
            if not stack:
                return items, pos + 1
            done = items
            items = stack.pop()
            items.append(done)
        else:
            items.append(token)
    raise SExprError("unbalanced parentheses")


def parse_sexpr(text: str) -> SExpr:
    """Parse a single s-expression."""
    tokens = tokenize(text)
    expr, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise SExprError(f"trailing tokens: {tokens[pos:]}")
    return expr


def parse_all_sexprs(text: str) -> List[SExpr]:
    """Parse a whole file worth of s-expressions."""
    tokens = tokenize(text)
    exprs: List[SExpr] = []
    pos = 0
    while pos < len(tokens):
        expr, pos = _read(tokens, pos)
        exprs.append(expr)
    return exprs
