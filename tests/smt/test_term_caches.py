"""The SMT front end's process-wide term tables change no result.

``simplify``, ``prepare_formula`` and the comparison canonicalisation
(:func:`~repro.smt.tseitin.comparison_entry`) each keep one table keyed by
interned term, filled by every solver in the process.  These tests run the
assertions of the three corpus files that ``test_work_counters.py`` replays
with the tables cleared, with them warm, and with them emptied before every
term so that nothing is shared, and check that every answer is the same.
They clear the module tables themselves: no API exists for that.
"""

import importlib
import os

import pytest

from repro.lang.ast import Kind
from repro.lang.builders import ge, int_const, int_var, mul
from repro.lang.simplify import simplify
from repro.lang.traversal import subexpressions
from repro.smt import capture, tseitin
from repro.smt.linear import LinearityError
from repro.smt.sat import SatSolver
from repro.smt.solver import SmtSolver
from repro.smt.tseitin import CnfEncoder, comparison_entry, prepare_formula

CORPUS = os.path.join(os.path.dirname(__file__), "..", "..", "smt_corpus")
FILES = ("nat-max2", "cap-min2", "qm-max3")
COMPARISONS = (Kind.GE, Kind.GT, Kind.LE, Kind.LT)
# ``repro.lang`` re-exports the function under the module's name.
simplify_module = importlib.import_module("repro.lang.simplify")


def _queries():
    """Each corpus entry's asserted and assumed terms, in file order."""
    queries = []
    for name in FILES:
        _, entries = capture.read_corpus_file(
            os.path.join(CORPUS, f"{name}.smtq.jsonl")
        )
        for _, entry in entries:
            terms, _ = capture._parse_query(entry["q"])
            queries.append(terms)
    return queries


def _clear_tables():
    simplify_module._simplified.clear()
    tseitin._prepared.clear()
    tseitin._comparison_entries.clear()


def _front_end(terms):
    """Simplified and prepared forms of ``terms`` and every comparison entry."""
    simplified = [simplify(t) for t in terms]
    prepared = [prepare_formula(t) for t in simplified]
    comparisons = [
        sub
        for formula in prepared
        for sub in subexpressions(formula)
        if sub.kind in COMPARISONS
    ]
    entries = [comparison_entry(c) for c in comparisons]
    return simplified, prepared, comparisons, entries


def _assert_same(got, want):
    simplified, prepared, comparisons, entries = got
    assert all(a is b for a, b in zip(simplified, want[0], strict=True))
    assert all(a is b for a, b in zip(prepared, want[1], strict=True))
    assert all(a is b for a, b in zip(comparisons, want[2], strict=True))
    assert entries == want[3]


def test_cold_warm_and_unshared_tables_return_identical_terms():
    terms = [term for query in _queries() for term in query]
    _clear_tables()
    cold = _front_end(terms)
    assert cold[3], "the corpus should hold comparisons"
    _assert_same(_front_end(terms), cold)
    _clear_tables()
    _front_end(list(reversed(terms)))  # fill the tables in another order
    _assert_same(_front_end(terms), cold)
    # Shared with nothing: empty tables for every term, as every call had a
    # fresh memo before the tables existed.
    unshared = []
    for term in terms:
        _clear_tables()
        unshared.append(_front_end([term]))
    _assert_same(
        tuple([x for one in unshared for x in one[i]] for i in range(4)), cold
    )


class _RecordingSat(SatSolver):
    def __init__(self):
        super().__init__()
        self.added = []

    def add_clause(self, lits):
        self.added.append(list(lits))
        return super().add_clause(lits)


def _encode(terms):
    encoder = CnfEncoder(_RecordingSat())
    for term in terms:
        encoder.assert_formula(simplify(term))
    return encoder


@pytest.mark.parametrize("warm_first", [True, False])
def test_encoders_before_and_after_clearing_encode_alike(warm_first):
    for terms in _queries():
        if warm_first:
            _encode(terms)
            first = _encode(terms)
            _clear_tables()
            second = _encode(terms)
        else:
            _clear_tables()
            first = _encode(terms)
            second = _encode(terms)
        assert second.atom_vars == first.atom_vars
        assert second.bool_vars == first.bool_vars
        assert second.sat.added == first.sat.added
        assert second.sat.num_vars == first.sat.num_vars
        assert all(
            a is b for a, b in zip(second.asserted, first.asserted, strict=True)
        )


def test_a_nonlinear_assertion_raises_on_every_fresh_solver():
    x, y = int_var("x"), int_var("y")
    nonlinear = ge(mul(x, y), int_const(1))
    for _ in range(2):
        solver = SmtSolver()
        solver.add(nonlinear)
        with pytest.raises(LinearityError):
            solver.solve()
    assert prepare_formula(simplify(nonlinear)) not in tseitin._comparison_entries
