"""The regex s-expression reader reads every text as the old reader did.

``tests/lang/reference_sexpr.py`` keeps the character-loop tokenizer and
recursive parser that :mod:`repro.lang.sexpr` replaced.  Random text, both
well-formed and broken, goes to both readers, which must return the same
tokens and trees or raise :class:`SExprError` with the same message.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.suite import full_suite
from repro.lang import sexpr
from repro.lang.sexpr import SExprError
from repro.sygus import parser
from repro.sygus.serializer import problem_to_sygus

from tests.lang import reference_sexpr

#: Pieces that exercise every branch of both tokenizers: parentheses,
#: atoms (one holding a quote), numerals, comments running to a newline or
#: to the end, string literals holding ``(``, ``)`` and ``;``, an unclosed
#: quote, the four whitespace characters and control or Unicode characters
#: that are not whitespace to the reader.
PIECES = [
    "(", "(", ")", ")", "x", "-12", "007", ">=", "a\"b", "|q r|",
    "; comment (\n", ";)", '"a (b) ;c"', '""', '"', " ", "  ", "\t", "\r",
    "\n", "\r\n", "\f", "\v", "\x00", "\x1b", " ", " ", "٣",
]

_soup = st.lists(
    st.one_of(st.sampled_from(PIECES), st.text(max_size=3)), max_size=40
).map("".join)

_atoms = st.sampled_from(["x", "y", "-3", "42", "ite", '"s;(t)"', "ab\"c"])
_separators = st.sampled_from([" ", "\t", "\n", "\r\n", " ; note\n", "  "])


@st.composite
def _nested(draw):
    """Well-formed nested lists, joined by random separators."""
    tree = draw(
        st.recursive(
            _atoms,
            lambda children: st.lists(children, max_size=4),
            max_leaves=20,
        )
    )

    def render(node):
        if isinstance(node, str):
            return node
        sep = draw(_separators)
        return "(" + sep.join(render(child) for child in node) + ")"

    return draw(_separators) + render(tree) + draw(_separators)


@st.composite
def _damaged(draw):
    """Well-formed text with one piece spliced in: a stray ``)``, an
    unclosed ``(``, a quote, a comment or a second expression."""
    text = draw(_nested())
    at = draw(st.integers(0, len(text)))
    piece = draw(st.sampled_from(["(", ")", '"', ";", " y", "\f", "() ()"]))
    return text[:at] + piece + text[at:]


_texts = st.one_of(_soup, _nested(), _damaged())


def _outcome(read, text):
    try:
        return "ok", read(text)
    except SExprError as exc:
        return "error", str(exc)


@settings(max_examples=400, deadline=None)
@given(_texts)
def test_both_readers_agree(text):
    for name in ("tokenize", "parse_sexpr", "parse_all_sexprs"):
        new = _outcome(getattr(sexpr, name), text)
        old = _outcome(getattr(reference_sexpr, name), text)
        assert new == old, (name, text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "unexpected end of input"),
        ("  ; only a comment", "unexpected end of input"),
        (")", "unexpected ')'"),
        ("(a (b)", "unbalanced parentheses"),
        ('(a "b)', "unterminated string literal"),
        ("(a) b (c)", "trailing tokens: ['b', '(', 'c', ')']"),
    ],
)
def test_error_messages(text, message):
    for reader in (sexpr, reference_sexpr):
        with pytest.raises(SExprError) as caught:
            reader.parse_sexpr(text)
        assert str(caught.value) == message


def test_only_four_characters_are_whitespace():
    text = "(a\fb\vc d\te\rf\ng h)"
    assert sexpr.parse_sexpr(text) == ["a\fb\vc d", "e", "f", "g", "h"]
    assert reference_sexpr.parse_sexpr(text) == sexpr.parse_sexpr(text)


def test_suite_problems_print_alike_under_either_reader(monkeypatch):
    texts = [problem_to_sygus(b.problem()) for b in full_suite()]
    printed = [problem_to_sygus(parser.parse_sygus_text(t)) for t in texts]
    monkeypatch.setattr(
        parser, "parse_all_sexprs", reference_sexpr.parse_all_sexprs
    )
    assert [
        problem_to_sygus(parser.parse_sygus_text(t)) for t in texts
    ] == printed
    assert printed == texts
