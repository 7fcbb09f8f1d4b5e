"""The replay's text table changes no parsed query.

``repro.smt.capture._parse_query`` keeps one module-level table from an
assertion or assumption text to its parsed term, and reuses an entry only
when every name the text resolved through the scope is the identical
variable in the current query's scope.  These tests parse every query of
``smt_corpus/`` with the table cleared, warm, filled in reverse file order
and bypassed, and check that each gives the identical interned terms.  They
clear the table themselves: no API exists for that.
"""

import os

import pytest

from repro.lang.sexpr import parse_sexpr
from repro.lang.sorts import BOOL, INT
from repro.smt import capture
from repro.sygus.parser import _Context

CORPUS = os.path.join(os.path.dirname(__file__), "..", "..", "smt_corpus")


def _corpus_queries():
    """Every entry's query, in file order."""
    queries = []
    for path in capture.corpus_files(CORPUS):
        _, entries = capture.read_corpus_file(path)
        queries.extend(entry["q"] for _, entry in entries)
    return queries


def _bypassed(query):
    """The query parsed without the table, as before it existed."""
    _, scope = capture._parse_query({"vars": query["vars"]})
    ctx = _Context()
    return [
        ctx.parse_term(parse_sexpr(text), scope)
        for text in query["assert"] + query["assume"]
    ]


def _parse_all(queries):
    return [capture._parse_query(query)[0] for query in queries]


def _assert_identical(got, want):
    for got_terms, want_terms in zip(got, want, strict=True):
        assert all(a is b for a, b in zip(got_terms, want_terms, strict=True))


def test_cleared_warm_reversed_and_bypassed_parses_are_identical():
    queries = _corpus_queries()
    assert len(queries) > 1000
    capture._parsed.clear()
    cold = _parse_all(queries)
    # One entry per distinct text, and the corpus repeats texts.
    texts = {t for q in queries for t in q["assert"] + q["assume"]}
    assert set(capture._parsed) == texts
    assert len(texts) < sum(len(q["assert"]) + len(q["assume"]) for q in queries)
    _assert_identical(_parse_all(queries), cold)
    capture._parsed.clear()
    reversed_fill = _parse_all(queries[::-1])[::-1]
    _assert_identical(reversed_fill, cold)
    _assert_identical(_parse_all(queries), cold)
    _assert_identical([_bypassed(q) for q in queries], cold)


def test_a_name_that_changes_sort_is_parsed_again():
    capture._parsed.clear()
    text = "(= x x)"
    as_int, _ = capture._parse_query({"vars": {"x": "Int"}, "assert": [text]})
    as_bool, _ = capture._parse_query({"vars": {"x": "Bool"}, "assert": [text]})
    assert as_int[0].args[0].sort is INT
    assert as_bool[0].args[0].sort is BOOL
    assert capture._parsed[text][0] is as_bool[0]
    # An unused name in the scope does not stop a reuse.
    again, _ = capture._parse_query(
        {"vars": {"x": "Bool", "y": "Int"}, "assert": [text]}
    )
    assert again[0] is as_bool[0]


def _entry(query):
    return {"seq": 1, "status": "unsat", "budget": {}, "q": query}


@pytest.mark.parametrize(
    "query",
    [
        {"vars": {}, "assert": ["(>= y 0)"]},
        {"vars": {"x": "Int"}, "assert": ["(>= x"]},
        {"vars": {"x": "Int"}, "assert": ["(>= x --5)"]},
    ],
    ids=["unknown-symbol", "unbalanced", "bad-numeral"],
)
def test_a_text_that_fails_stores_nothing_and_stays_corrupt(query):
    capture._parsed.clear()
    for _ in range(2):
        report = capture.ReplayReport()
        capture.replay_entry("q.smtq.jsonl", 2, _entry(query), report)
        assert [d.kind for d in report.divergences] == [capture.KIND_CORRUPT]
        assert capture._parsed == {}


def test_a_text_that_parsed_in_one_scope_fails_in_another():
    capture._parsed.clear()
    text = "(>= x 0)"
    good = _entry({"vars": {"x": "Int"}, "assert": [text]})
    good["status"] = "sat"
    report = capture.ReplayReport()
    capture.replay_entry("q.smtq.jsonl", 2, good, report)
    assert report.ok
    stored = capture._parsed[text]
    for vars_ in ({"x": "Bool"}, {}):
        report = capture.ReplayReport()
        capture.replay_entry(
            "q.smtq.jsonl", 3, _entry({"vars": vars_, "assert": [text]}), report
        )
        assert [d.kind for d in report.divergences] == [capture.KIND_CORRUPT]
        assert capture._parsed[text] is stored

