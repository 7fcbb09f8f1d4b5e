"""The s-expression reader as it was before its regex kernel, for tests only.

This is :mod:`repro.lang.sexpr` as it stood before the reader was rewritten
for speed: a character loop that builds the token list and a recursive
descent over it.  It raises :class:`repro.lang.sexpr.SExprError` with the
same messages, so the two readers can be fed the same text and their
tokens, trees and errors compared directly
(``tests/lang/test_sexpr_reference.py``).  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.lang.sexpr import SExpr, SExprError


def tokenize(text: str) -> List[str]:
    """Split ``text`` into parenthesis and atom tokens, dropping comments."""
    tokens: List[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            if j >= n:
                raise SExprError("unterminated string literal")
            tokens.append(text[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def _parse(tokens: List[str], pos: int) -> Tuple[SExpr, int]:
    if pos >= len(tokens):
        raise SExprError("unexpected end of input")
    token = tokens[pos]
    if token == "(":
        items: List[SExpr] = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _parse(tokens, pos)
            items.append(item)
        if pos >= len(tokens):
            raise SExprError("unbalanced parentheses")
        return items, pos + 1
    if token == ")":
        raise SExprError("unexpected ')'")
    return token, pos + 1


def parse_sexpr(text: str) -> SExpr:
    """Parse a single s-expression."""
    tokens = tokenize(text)
    expr, pos = _parse(tokens, 0)
    if pos != len(tokens):
        raise SExprError(f"trailing tokens: {tokens[pos:]}")
    return expr


def parse_all_sexprs(text: str) -> List[SExpr]:
    """Parse a whole file worth of s-expressions."""
    tokens = tokenize(text)
    exprs: List[SExpr] = []
    pos = 0
    while pos < len(tokens):
        expr, pos = _parse(tokens, pos)
        exprs.append(expr)
    return exprs
