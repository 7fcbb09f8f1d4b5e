"""SMT query capture and deterministic replay (``--smt-corpus``).

Capturing serializes every :meth:`SmtSolver.solve` call — the active
assertion set, the per-call assumptions, the recorded outcome and (for SAT)
the model — into a line-oriented corpus that replays *without the synthesis
loop*: SMT-core performance work can be benchmarked against real query
distributions in isolation, and any behavioural divergence (a status flip, a
model that stops satisfying its query) is caught exactly.

Corpus layout: one ``<problem>.smtq.jsonl`` file per captured problem inside
the corpus directory.  Line 1 is a header ``{"format": "repro-smtq/1", ...}``;
each further line is one query entry::

    {"seq": 7, "status": "sat", "wall": 0.0013,
     "budget": {"max_rounds": 100000, "lia_node_budget": 20000},
     "q": {"vars": {"x": "Int", ...}, "assert": ["(>= x 0)", ...],
           "assume": ["b0"]},
     "model": {"x": 3}, "model_sig": "9f8e..."}

Formulas are stored as SyGuS/SMT-LIB s-expressions (via
:func:`repro.lang.printer.to_sexpr`) and parsed back through the SyGuS term
parser, so the corpus is printable, diffable and solver-independent.

Replay semantics: each entry gets a **fresh** solver with the recorded
budgets.  The captured status must reproduce exactly, except for aborted
captures (``deadline-exceeded`` / ``budget-exceeded``): a wall-clock or
warmed-solver budget abort is an artifact of the capturing run, so those
entries are counted as skipped rather than replayed.  SAT models are checked
*semantically* — the replayed model must satisfy the parsed query — not
syntactically, because a fresh solver legitimately returns a different model
than the incremental session the query was captured from.  The stored
``model_sig`` is an integrity hash of the stored model; a mismatch means the
corpus file was altered.

Capture activation is ambient (like :mod:`repro.obs`): ``with
capturing(dir, problem): ...`` installs a writer that
:meth:`SmtSolver.solve` consults; the disabled cost is one global read.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lang.printer import to_sexpr
from repro.lang.traversal import free_vars

FORMAT = "repro-smtq/1"

#: Divergence kinds, in report-precedence order (worst first).
KIND_CORRUPT = "corrupt"
KIND_STATUS = "status"
KIND_MODEL = "model"

#: Captured statuses that describe an *abort*, not a decision.  A
#: ``deadline-exceeded`` capture means the run's wall-clock deadline fired
#: mid-query; a ``budget-exceeded`` capture means the round/node budget ran
#: out on a solver warmed by every earlier query of the session.  Neither is
#: reproducible on a fresh solver (no deadline; no learned state), so replay
#: counts these entries as skipped instead of comparing their status.
ABORTED_STATUSES = frozenset({"budget-exceeded", "deadline-exceeded"})


class CorpusError(Exception):
    """A corpus file is structurally damaged (not merely divergent)."""


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name) or "queries"


def model_signature(model: Dict) -> str:
    """Integrity hash of a stored model: sorted ``name=value`` lines."""
    lines = "\n".join(f"{k}={model[k]}" for k in sorted(model))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()[:16]


class QueryCapture:
    """Appends one entry per ``solve()`` call to ``<dir>/<problem>.smtq.jsonl``."""

    def __init__(self, directory: str, problem: str = "queries") -> None:
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, f"{_sanitize(problem)}.smtq.jsonl")
        fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
        self._handle = open(self.path, "a")
        if fresh:
            self._handle.write(
                json.dumps({"format": FORMAT, "problem": problem}) + "\n"
            )
            self._handle.flush()
        self.seq = 0
        # An incremental solver re-solves with a growing assertion list;
        # per-term memos keep successive snapshots from re-rendering (and
        # re-walking) the shared prefix on every query.  Keyed by object
        # identity, which is exactly the sharing the solver exhibits.
        self._sexpr_memo: Dict[int, str] = {}
        self._vars_memo: Dict[int, Dict[str, str]] = {}

    def _render(self, term) -> str:
        text = self._sexpr_memo.get(id(term))
        if text is None:
            text = self._sexpr_memo[id(term)] = to_sexpr(term)
        return text

    def _variables(self, term) -> Dict[str, str]:
        found = self._vars_memo.get(id(term))
        if found is None:
            found = self._vars_memo[id(term)] = {
                v.payload: v.sort.name for v in free_vars(term)
            }
        return found

    def snapshot(self, solver, assumptions) -> Dict:
        """Serialize the solver's active query *before* it runs.

        The active query is ``AND(asserted) ∧ AND(assumptions)``.
        ``add(false)`` never reaches the assertion list (the solver
        short-circuits on a flag), so it is re-materialized here as a
        literal ``"false"`` — without it an UNSAT capture would replay as an
        empty SAT query.
        """
        asserted = list(solver._encoder.asserted)
        variables: Dict[str, str] = {}
        for term in list(asserted) + list(assumptions):
            variables.update(self._variables(term))
        rendered = [self._render(term) for term in asserted]
        if solver._trivially_false:
            rendered.append("false")
        return {
            "vars": dict(sorted(variables.items())),
            "assert": rendered,
            "assume": [self._render(term) for term in assumptions],
        }

    def record(
        self,
        query: Dict,
        status: str,
        model: Optional[Dict],
        wall: float,
        budget: Dict,
    ) -> None:
        self.seq += 1
        entry: Dict = {
            "seq": self.seq,
            "status": status,
            "wall": round(wall, 6),
            "budget": budget,
            "q": query,
        }
        if model is not None:
            # Restrict to the query's free variables: encoder-internal names
            # are not replayable and carry no information about the query.
            visible = {
                k: (int(v) if not isinstance(v, bool) else bool(v))
                for k, v in model.items()
                if k in query["vars"]
            }
            entry["model"] = visible
            entry["model_sig"] = model_signature(visible)
        self._handle.write(json.dumps(entry) + "\n")
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()


_active: Optional[QueryCapture] = None


def active() -> Optional[QueryCapture]:
    """The ambient capture writer, or None (the common, zero-cost case)."""
    return _active


@contextmanager
def capturing(directory: str, problem: str = "queries"):
    """Capture every ``solve()`` in the block into ``directory``."""
    global _active
    previous = _active
    writer = QueryCapture(directory, problem)
    _active = writer
    try:
        yield writer
    finally:
        _active = previous
        writer.close()


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


@dataclass
class Divergence:
    """One replay mismatch."""

    path: str
    seq: object
    kind: str  # corrupt | status | model
    detail: str


@dataclass
class ReplayReport:
    """Aggregate outcome of replaying one corpus."""

    entries: int = 0
    files: int = 0
    skipped: int = 0  # aborted captures (see ABORTED_STATUSES), not replayed
    pivots: int = 0  # simplex pivots of the replayed solves
    # SAT-core work of the replayed solvers (each entry gets a fresh one).
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    captured_walls: List[float] = field(default_factory=list)
    replayed_walls: List[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def kinds(self) -> List[str]:
        return sorted({d.kind for d in self.divergences})


def _percentile(values: List[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def timing_percentiles(values: List[float]) -> Dict[str, float]:
    return {
        "p50": round(_percentile(values, 0.50), 6),
        "p90": round(_percentile(values, 0.90), 6),
        "p99": round(_percentile(values, 0.99), 6),
    }


#: Every assertion or assumption text parsed in this process: text →
#: (term, the ``(name, variable)`` pairs its parse resolved through the
#: scope).  An incremental session re-captures its whole assertion list on
#: every solve, so most texts of a corpus recur in later entries.
_parsed: Dict[str, Tuple[object, Tuple[Tuple[str, object], ...]]] = {}


class _RecordingScope(dict):
    """A copy of a scope that records each name looked up through it."""

    def __init__(self, scope: Dict) -> None:
        super().__init__(scope)
        self.resolved: Dict = {}

    def __getitem__(self, name: str):
        value = self.resolved[name] = dict.__getitem__(self, name)
        return value


def _parse_query(query: Dict) -> Tuple[List, Dict]:
    """Parse an entry's query back into Terms; returns (terms, scope).

    A text parsed before is not parsed again when every name its parse
    resolved through the scope maps to the identical interned variable in
    this entry's scope: the parse then builds the same terms.  Otherwise
    the text is parsed in this scope and replaces its table entry; a text
    that fails to parse stores nothing.
    """
    from repro.lang.builders import var
    from repro.lang.sexpr import parse_sexpr
    from repro.lang.sorts import BOOL, INT
    from repro.sygus.parser import _Context

    sorts = {"Int": INT, "Bool": BOOL}
    scope = {}
    for name, sort_name in query.get("vars", {}).items():
        if sort_name not in sorts:
            raise CorpusError(f"unknown sort {sort_name!r}")
        scope[name] = var(name, sorts[sort_name])
    ctx = _Context()
    terms = []
    for text in list(query.get("assert", ())) + list(query.get("assume", ())):
        hit = _parsed.get(text)
        if hit is not None and all(scope.get(n) is v for n, v in hit[1]):
            terms.append(hit[0])
            continue
        lookups = _RecordingScope(scope)
        term = ctx.parse_term(parse_sexpr(text), lookups)
        _parsed[text] = (term, tuple(lookups.resolved.items()))
        terms.append(term)
    return terms, scope


def _model_satisfies(terms: List, scope: Dict, model: Dict) -> Tuple[bool, str]:
    """Semantic model check: every query conjunct evaluates to true."""
    from repro.lang.evaluator import EvaluationError, evaluate
    from repro.lang.sorts import BOOL

    env = {}
    for name, var_term in scope.items():
        default = False if var_term.sort is BOOL else 0
        env[name] = model.get(name, default)
    for term in terms:
        try:
            value = evaluate(term, env)
        except EvaluationError as exc:
            return False, f"evaluation failed: {exc}"
        if not bool(value):
            return False, f"conjunct not satisfied: {to_sexpr(term)[:120]}"
    return True, ""


def read_corpus_file(path: str) -> Tuple[Dict, List[Tuple[int, Dict]]]:
    """Load one ``.smtq.jsonl`` file; returns ``(header, [(lineno, entry)])``.

    Raises :class:`CorpusError` on an unreadable line or a missing/foreign
    header — replay must never silently skip damaged data.
    """
    header: Dict = {}
    entries: List[Tuple[int, Dict]] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: unreadable entry: {exc}")
            if not isinstance(record, dict):
                raise CorpusError(f"{path}:{lineno}: entry is not an object")
            if lineno == 1:
                if record.get("format") != FORMAT:
                    raise CorpusError(
                        f"{path}: not a {FORMAT} corpus "
                        f"(header format={record.get('format')!r})"
                    )
                header = record
                continue
            entries.append((lineno, record))
    if not header:
        raise CorpusError(f"{path}: empty corpus file (no header)")
    return header, entries


def corpus_files(target: str) -> List[str]:
    """The corpus files under ``target`` (a directory or one file)."""
    if os.path.isfile(target):
        return [target]
    if os.path.isdir(target):
        return sorted(
            os.path.join(target, name)
            for name in os.listdir(target)
            if name.endswith(".smtq.jsonl")
        )
    return []


def replay_entry(
    path: str,
    lineno: int,
    entry: Dict,
    report: ReplayReport,
    memo=None,
) -> None:
    """Replay one entry on a fresh solver, appending divergences to ``report``.

    ``memo`` (a :class:`repro.smt.memo.QueryMemo`) is shared across the
    replay's fresh solvers; ``None`` — the default, and what ``smt-replay``
    uses — forces true re-execution of every query.  Pass one shared memo
    to measure the memoized solve path instead: duplicate decided
    queries answer from cache, and the divergence checks still apply to the
    answers the caller would have observed.
    """
    from repro.smt.simplex import pivots_total
    from repro.smt.solver import SmtSolver, SolverBudgetExceeded

    seq = entry.get("seq", f"line {lineno}")

    def diverge(kind: str, detail: str) -> None:
        report.divergences.append(Divergence(path, seq, kind, detail))

    status = entry.get("status")
    query = entry.get("q")
    if not isinstance(query, dict) or not isinstance(status, str):
        diverge(KIND_CORRUPT, "missing q/status fields")
        return
    if status in ABORTED_STATUSES:
        report.skipped += 1
        return
    model = entry.get("model")
    if model is not None:
        if entry.get("model_sig") != model_signature(model):
            diverge(
                KIND_MODEL,
                "stored model does not match its model_sig "
                "(corpus altered after capture)",
            )
            return
    try:
        terms, scope = _parse_query(query)
    except Exception as exc:  # parse/sort errors are corruption, not divergence
        diverge(KIND_CORRUPT, f"query does not parse: {exc}")
        return
    budget = entry.get("budget", {})
    solver = SmtSolver(
        max_rounds=int(budget.get("max_rounds", 100000)),
        lia_node_budget=int(budget.get("lia_node_budget", 20000)),
        memo=memo,
    )
    assume_count = len(query.get("assume", ()))
    asserted = terms[: len(terms) - assume_count] if assume_count else terms
    assumptions = terms[len(terms) - assume_count:] if assume_count else []
    pivots = pivots_total()
    start = time.monotonic()
    try:
        for term in asserted:
            solver.add(term)
        result = solver.solve(assumptions=assumptions)
        observed = result.status.value
        observed_model = result.model
    except SolverBudgetExceeded:
        observed = "budget-exceeded"
        observed_model = None
    replay_wall = time.monotonic() - start
    report.pivots += pivots_total() - pivots
    sat = solver._encoder.sat
    report.conflicts += sat.num_conflicts
    report.decisions += sat.num_decisions
    report.propagations += sat.num_propagations
    report.captured_walls.append(float(entry.get("wall", 0.0)))
    report.replayed_walls.append(replay_wall)
    if observed != status:
        diverge(KIND_STATUS, f"captured {status}, replayed {observed}")
        return
    if observed == "sat" and observed_model is not None:
        ok, detail = _model_satisfies(terms, scope, observed_model)
        if not ok:
            diverge(KIND_MODEL, f"replayed model does not satisfy query: {detail}")


def replay_corpus(target: str, memo=None) -> ReplayReport:
    """Replay every entry in a corpus directory (or single file)."""
    report = ReplayReport()
    files = corpus_files(target)
    if not files:
        raise CorpusError(f"no .smtq.jsonl corpus files under {target!r}")
    for path in files:
        try:
            _, entries = read_corpus_file(path)
        except CorpusError as exc:
            report.files += 1
            report.divergences.append(Divergence(path, "-", KIND_CORRUPT, str(exc)))
            continue
        report.files += 1
        for lineno, entry in entries:
            report.entries += 1
            replay_entry(path, lineno, entry, report, memo=memo)
    return report


def render_report(report: ReplayReport) -> str:
    """Human-readable replay report."""
    lines = [
        f"smt-replay: {report.entries} queries across {report.files} file(s)",
        "  captured wall  "
        + "  ".join(
            f"{k}={v:.6f}s" for k, v in timing_percentiles(report.captured_walls).items()
        ),
        "  replayed wall  "
        + "  ".join(
            f"{k}={v:.6f}s" for k, v in timing_percentiles(report.replayed_walls).items()
        ),
        f"  simplex pivots {report.pivots}",
        f"  sat conflicts {report.conflicts} decisions {report.decisions}"
        f" propagations {report.propagations}",
    ]
    if report.skipped:
        lines.append(
            f"  skipped {report.skipped} aborted capture(s) "
            "(deadline/budget aborts are not reproducible on a fresh solver)"
        )
    if report.ok:
        lines.append("  zero divergences: every status and model reproduced")
    else:
        lines.append(f"  DIVERGENCES: {len(report.divergences)}")
        for div in report.divergences[:50]:
            lines.append(
                f"    [{div.kind}] {os.path.basename(div.path)} "
                f"seq={div.seq}: {div.detail}"
            )
        if len(report.divergences) > 50:
            lines.append(f"    ... and {len(report.divergences) - 50} more")
    return "\n".join(lines)
