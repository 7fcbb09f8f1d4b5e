"""Exact work pins for the SMT stack on three committed corpus files.

Replays ``nat-max2``, ``cap-min2`` and ``qm-max3`` from ``smt_corpus/`` on
fresh solvers with the query memo off and asserts the exact work done at
every layer: simplex pivots, branch-and-bound nodes (one ``Simplex.check``
each), core-minimisation ``check_lia`` calls, DPLL(T) rounds, theory lemmas,
SAT conflicts, decisions and unit propagations.  A digest pins every
replayed status, model and unsat core, and every ``check_lia`` outcome with
its core order.

A change to the solver's number representation or data layout keeps every
decision, so it must pass this test without editing a number; a change that
alters the search (branching order, core order, pivot choice) fails here
and has to update the pins on purpose.
"""

import hashlib
import os

import repro.smt.solver as solver_module
from repro.lang.printer import to_sexpr
from repro.smt import capture
from repro.smt.simplex import Simplex, pivots_total
from repro.smt.solver import SmtSolver, SolverBudgetExceeded

CORPUS = os.path.join(os.path.dirname(__file__), "..", "..", "smt_corpus")
FILES = ("nat-max2", "cap-min2", "qm-max3")


class _Spy:
    """Counts and digests the work of every replayed query."""

    def __init__(self, monkeypatch):
        self.counts = dict.fromkeys(
            ("nodes", "core_min_calls", "rounds", "lemmas", "conflicts",
             "decisions"),
            0,
        )
        self.digest = hashlib.sha256()
        original_check = Simplex.check
        original_lia = solver_module.check_lia
        original_solve = SmtSolver.solve

        def check(simplex):
            self.counts["nodes"] += 1
            return original_check(simplex)

        def check_lia(constraints, max_nodes=20000, deadline=None):
            if max_nodes == 60:
                self.counts["core_min_calls"] += 1
            try:
                feasible, payload = original_lia(constraints, max_nodes, deadline)
            except Exception as exc:
                self._feed("lia", max_nodes, type(exc).__name__)
                raise
            if feasible:
                self._feed("lia", max_nodes, "sat", sorted(payload.items()))
            else:
                self._feed("lia", max_nodes, "unsat", list(payload))
            return feasible, payload

        def solve(smt, assumptions=()):
            sat = smt._encoder.sat
            before = (smt.stats.rounds, smt.stats.lemmas, sat.num_conflicts,
                      sat.num_decisions)
            try:
                result = original_solve(smt, assumptions)
            except SolverBudgetExceeded:
                self._feed("solve", "budget-exceeded")
                raise
            finally:
                self.counts["rounds"] += smt.stats.rounds - before[0]
                self.counts["lemmas"] += smt.stats.lemmas - before[1]
                self.counts["conflicts"] += sat.num_conflicts - before[2]
                self.counts["decisions"] += sat.num_decisions - before[3]
            model = sorted((result.model or {}).items())
            core = [to_sexpr(term) for term in result.unsat_core]
            self._feed("solve", result.status.value, model, core)
            return result

        monkeypatch.setattr(Simplex, "check", check)
        monkeypatch.setattr(solver_module, "check_lia", check_lia)
        monkeypatch.setattr(SmtSolver, "solve", solve)

    def _feed(self, *record):
        self.digest.update(repr(record).encode("utf-8") + b"\n")


def test_replay_work_is_pinned(monkeypatch):
    spy = _Spy(monkeypatch)
    report = capture.ReplayReport()
    pivots_before = pivots_total()
    for name in FILES:
        path = os.path.join(CORPUS, f"{name}.smtq.jsonl")
        _, entries = capture.read_corpus_file(path)
        report.files += 1
        for lineno, entry in entries:
            report.entries += 1
            capture.replay_entry(path, lineno, entry, report, memo=None)
    assert report.divergences == []
    assert report.skipped == 1
    assert pivots_total() - pivots_before == 7040
    assert spy.counts == {
        "nodes": 3249,
        "core_min_calls": 500,
        "rounds": 139,
        "lemmas": 82,
        "conflicts": 50,
        "decisions": 3066,
    }
    # Propagation also runs when add_clause() meets a unit clause, so it is
    # summed over each fresh solver's lifetime, not inside solve() alone.
    assert (report.conflicts, report.decisions, report.propagations) == (
        50, 3066, 10057
    )
    assert spy.digest.hexdigest() == (
        "88087fb03070e0de21cde00025c7d192769af4b106bae551400e7e995423f7a9"
    )
