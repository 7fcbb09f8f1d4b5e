"""Semantic SMT query memoization keyed by interned terms.

The synthesis loops issue many *semantically identical* SMT queries:
``SygusProblem.verify`` builds a fresh solver per candidate, the same
initial candidate reappears across heights and sessions, and replayed
corpora are full of shared incremental prefixes.  This module caches
**decided** outcomes (SAT with a model, UNSAT with its assumption core) in
one process-wide table so a duplicate query returns its recorded result
without touching DPLL(T).

**Key.**  :class:`~repro.smt.solver.SmtSolver` keys a query by the tuple of
its simplified assertions in add order, a flag for a trivially-false
assertion, and the tuple of the call's assumption terms.  Terms are
interned (:class:`~repro.lang.ast.Term`): two terms are the same object
exactly when they have the same kind, payload, sort and children, so equal
keys mean the same conjunction over the same-sorted variables and the
decision transfers.  Hashing a key hashes each term's precomputed hash, so
it costs one step per assertion and renders nothing.

**Before encoding.**  ``SmtSolver.add`` only simplifies and records a
formula, and ``SmtSolver.solve`` looks the key up before CNF-encoding
anything.  A hit therefore does no encoding and no SAT work; the pending
assertions are encoded, in add order, by the next solve that misses, so
an encoding error (an uninlined function application, say) surfaces from
that ``solve()``.  Only the Tseitin encoding and its clauses are built per
solver: simplified and prepared forms and canonical comparison atoms are
read from process-wide tables keyed by interned term
(:func:`~repro.lang.simplify.simplify`,
:func:`~repro.smt.tseitin.prepare_formula`,
:func:`~repro.smt.tseitin.comparison_entry`).

**Soundness.**  Only SAT/UNSAT results are stored: a budget or deadline
abort (:class:`SolverBudgetExceeded`) describes the *run*, not the query,
and propagates uncached.  SAT hits return a *copy* of the stored model
(callers mutate counterexamples in place); UNSAT hits return the stored
assumption core, whose terms are interned and therefore identical to the
caller's assumption terms.  Capture mode bypasses the memo entirely so a
recorded corpus always reflects real solves.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, Optional, Tuple

from repro import obs
from repro.lang.ast import Term

#: Stored decisions per memo; oldest-touched entries are evicted first.
DEFAULT_CAPACITY = 4096


class _Entry:
    __slots__ = ("status", "model", "rounds", "unsat_core")

    def __init__(
        self,
        status,
        model: Optional[Dict],
        rounds: int,
        unsat_core: Tuple[Term, ...],
    ) -> None:
        self.status = status
        self.model = model
        self.rounds = rounds
        self.unsat_core = unsat_core


class QueryMemo:
    """An LRU table of decided SMT query outcomes.

    Hit/miss totals are kept locally (for reports) and mirrored into the
    ambient metrics registry as ``smt.memo_hits`` / ``smt.memo_misses``
    (:mod:`repro.obs`; free when telemetry is disabled)."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Hashable):
        """The cached :class:`~repro.smt.solver.Result`, or None.

        A hit returns a *fresh* Result with a copied model — callers
        mutate counterexample models in place and must never reach the
        stored copy."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            obs.metrics().counter("smt.memo_misses").inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        obs.metrics().counter("smt.memo_hits").inc()
        from repro.smt.solver import Result

        model = dict(entry.model) if entry.model is not None else None
        return Result(entry.status, model, entry.rounds, entry.unsat_core)

    def store(self, key: Hashable, result) -> None:
        """Record a decided result; undecided outcomes are never stored."""
        from repro.smt.solver import Status

        if result.status not in (Status.SAT, Status.UNSAT):
            return
        model = dict(result.model) if result.model is not None else None
        self._entries[key] = _Entry(
            result.status, model, result.rounds, result.unsat_core
        )
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def reset(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
        }


#: The process-wide default memo every :class:`SmtSolver` shares unless
#: constructed with an explicit ``memo=`` (``None`` disables memoization —
#: replay tooling does this to force true re-execution).
_default = QueryMemo()


def default_memo() -> QueryMemo:
    return _default


def reset_default_memo() -> None:
    """Clear the process-wide memo (tests; isolation between corpora)."""
    _default.reset()
