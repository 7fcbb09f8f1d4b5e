"""Cross-run regression attribution (``dryadsynth diff``).

``explain`` (:mod:`repro.obs.explain`) answers *where one run's time went*;
this module answers *where the time moved between two runs*.  It aligns two
runs' span streams and forensics events by the process-stable subproblem
node id (``stable_node_id``: spec s-expr + signature + grammar hash — the
same id across runs, threads and worker processes), then computes:

- **per-node self-wall deltas** — which subproblems got slower or faster,
  including nodes that exist in only one run (a changed division strategy
  creates/retires nodes);
- **per-problem movers** — root ``synth`` spans grouped by their ``problem``
  attr, with solved-set gains/losses;
- **rule-firing and strategy drift** — which Figure 7/8 deduction rules
  fired more/less, and which nodes changed division strategy between runs;
- **SMT-round deltas** per node.

The report keeps ``explain``'s discipline: the per-node deltas plus the
``(run)`` bucket delta partition the total traced-wall delta *exactly*
(each run's self times partition its own wall, so their differences
partition the difference).  ``render_diff`` is an attribution of the
regression, not a collection of timers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.explain import (
    ExplainReport,
    NodeReport,
    build_explain,
)
from repro.obs.spans import ObsEvent, Span


@dataclass
class NodeDelta:
    """One aligned subproblem node across the two runs."""

    node_id: str
    fun: str = "?"
    present_a: bool = False
    present_b: bool = False
    self_a: float = 0.0
    self_b: float = 0.0
    smt_rounds_a: int = 0
    smt_rounds_b: int = 0
    cegis_iters_a: int = 0
    cegis_iters_b: int = 0
    status_a: Optional[str] = None  # solved_how | "unsolved" | None (absent)
    status_b: Optional[str] = None
    strategy_a: Optional[str] = None  # last division strategy seen on node
    strategy_b: Optional[str] = None
    heights_a: List[int] = field(default_factory=list)
    heights_b: List[int] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def delta(self) -> float:
        return self.self_b - self.self_a

    @property
    def drifted(self) -> bool:
        """Both runs saw the node but chose different division strategies."""
        return (
            self.present_a
            and self.present_b
            and self.strategy_a != self.strategy_b
        )

    @property
    def only_in(self) -> Optional[str]:
        if self.present_a and not self.present_b:
            return "A"
        if self.present_b and not self.present_a:
            return "B"
        return None


@dataclass
class ProblemDelta:
    """One problem (root ``synth`` span group) across the two runs."""

    name: str
    present_a: bool = False
    present_b: bool = False
    wall_a: float = 0.0
    wall_b: float = 0.0
    solved_a: bool = False
    solved_b: bool = False

    @property
    def delta(self) -> float:
        return self.wall_b - self.wall_a

    @property
    def status_change(self) -> str:
        def mark(present: bool, solved: bool) -> str:
            if not present:
                return "absent"
            return "solved" if solved else "unsolved"

        return f"{mark(self.present_a, self.solved_a)}->" \
               f"{mark(self.present_b, self.solved_b)}"


@dataclass
class RuleDelta:
    """One deduction rule's firing counts across the two runs."""

    rule: str
    fired_a: int = 0
    fired_b: int = 0
    failed_a: int = 0
    failed_b: int = 0

    @property
    def fired_delta(self) -> int:
        return self.fired_b - self.fired_a

    @property
    def failed_delta(self) -> int:
        return self.failed_b - self.failed_a


@dataclass
class DiffReport:
    """The computed cross-run attribution."""

    label_a: str
    label_b: str
    report_a: ExplainReport
    report_b: ExplainReport
    nodes: List[NodeDelta] = field(default_factory=list)
    problems: List[ProblemDelta] = field(default_factory=list)
    rules: List[RuleDelta] = field(default_factory=list)

    @property
    def total_delta(self) -> float:
        return self.report_b.total_wall - self.report_a.total_wall

    @property
    def run_self_delta(self) -> float:
        return self.report_b.run_self_wall - self.report_a.run_self_wall

    def attributed_delta(self) -> float:
        """(run)-bucket delta + per-node deltas; equals ``total_delta``."""
        return self.run_self_delta + sum(n.delta for n in self.nodes)

    @property
    def solved_lost(self) -> List[str]:
        return [
            p.name for p in self.problems
            if p.present_a and p.present_b and p.solved_a and not p.solved_b
        ]

    @property
    def solved_gained(self) -> List[str]:
        return [
            p.name for p in self.problems
            if p.present_a and p.present_b and p.solved_b and not p.solved_a
        ]

    @property
    def strategy_drift(self) -> List[NodeDelta]:
        return [n for n in self.nodes if n.drifted]

    @property
    def truncated(self) -> bool:
        return self.report_a.truncated or self.report_b.truncated

    def to_json(self) -> Dict:
        return {
            "format": "repro-run-diff/1",
            "label_a": self.label_a,
            "label_b": self.label_b,
            "total_wall_a": round(self.report_a.total_wall, 6),
            "total_wall_b": round(self.report_b.total_wall, 6),
            "total_delta": round(self.total_delta, 6),
            "run_self_delta": round(self.run_self_delta, 6),
            "attributed_delta": round(self.attributed_delta(), 6),
            "truncated": self.truncated,
            "solved_lost": self.solved_lost,
            "solved_gained": self.solved_gained,
            "problems": [
                {
                    "name": p.name,
                    "wall_a": round(p.wall_a, 6),
                    "wall_b": round(p.wall_b, 6),
                    "delta": round(p.delta, 6),
                    "status": p.status_change,
                }
                for p in self.problems
            ],
            "nodes": [
                {
                    "node": n.node_id,
                    "fun": n.fun,
                    "self_a": round(n.self_a, 6),
                    "self_b": round(n.self_b, 6),
                    "delta": round(n.delta, 6),
                    "smt_rounds_a": n.smt_rounds_a,
                    "smt_rounds_b": n.smt_rounds_b,
                    "status_a": n.status_a,
                    "status_b": n.status_b,
                    "strategy_a": n.strategy_a,
                    "strategy_b": n.strategy_b,
                    "only_in": n.only_in,
                    "problems": n.problems,
                }
                for n in self.nodes
            ],
            "rules": [
                {
                    "rule": r.rule,
                    "fired_a": r.fired_a,
                    "fired_b": r.fired_b,
                    "failed_a": r.failed_a,
                    "failed_b": r.failed_b,
                }
                for r in self.rules
            ],
        }


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------


def problem_rollup(spans: Sequence[Span]) -> Dict[str, Dict]:
    """Group root spans by their ``problem`` attr: wall + solved per problem.

    Root spans without a ``problem`` attr (daemon bookkeeping, merge roots)
    are skipped — the problem table is informational; the exact-partition
    invariant lives on the node table.
    """
    by_id = {span.span_id: span for span in spans}
    rollup: Dict[str, Dict] = {}
    for span in spans:
        if span.parent_id is not None and span.parent_id in by_id:
            continue  # not a root
        problem = span.attrs.get("problem")
        if not isinstance(problem, str) or not problem:
            continue
        entry = rollup.setdefault(
            problem, {"wall": 0.0, "solved": False, "runs": 0}
        )
        entry["wall"] += span.wall
        entry["runs"] += 1
        if span.attrs.get("solved"):
            entry["solved"] = True
    return rollup


def _node_strategy(report: NodeReport) -> Optional[str]:
    return report.last_strategy or report.strategy


def _node_status(report: NodeReport) -> str:
    return report.solved_how or "unsolved"


def build_diff(
    spans_a: Sequence[Span],
    events_a: Sequence[ObsEvent],
    spans_b: Sequence[Span],
    events_b: Sequence[ObsEvent],
    label_a: str = "A",
    label_b: str = "B",
    truncated_a: bool = False,
    truncated_b: bool = False,
) -> DiffReport:
    """Align two runs' streams by node id and compute the attribution."""
    report_a = build_explain(spans_a, events_a, truncated=truncated_a)
    report_b = build_explain(spans_b, events_b, truncated=truncated_b)
    diff = DiffReport(label_a, label_b, report_a, report_b)

    # -- Nodes: union of the two runs's stable ids, A-order first ------------
    node_ids = list(report_a.nodes)
    node_ids.extend(n for n in report_b.nodes if n not in report_a.nodes)
    for node_id in node_ids:
        a = report_a.nodes.get(node_id)
        b = report_b.nodes.get(node_id)
        delta = NodeDelta(node_id)
        if a is not None:
            delta.present_a = True
            delta.fun = a.fun
            delta.self_a = a.self_wall
            delta.smt_rounds_a = a.smt_rounds
            delta.cegis_iters_a = a.cegis_iters
            delta.status_a = _node_status(a)
            delta.strategy_a = _node_strategy(a)
            delta.heights_a = list(a.heights)
            delta.problems = list(a.problems)
        if b is not None:
            delta.present_b = True
            if delta.fun == "?":
                delta.fun = b.fun
            delta.self_b = b.self_wall
            delta.smt_rounds_b = b.smt_rounds
            delta.cegis_iters_b = b.cegis_iters
            delta.status_b = _node_status(b)
            delta.strategy_b = _node_strategy(b)
            delta.heights_b = list(b.heights)
            for problem in b.problems:
                if problem not in delta.problems:
                    delta.problems.append(problem)
        diff.nodes.append(delta)
    diff.nodes.sort(key=lambda n: (-abs(n.delta), n.node_id))

    # -- Problems: union of the root-span rollups ----------------------------
    rollup_a = problem_rollup(spans_a)
    rollup_b = problem_rollup(spans_b)
    names = list(rollup_a)
    names.extend(n for n in rollup_b if n not in rollup_a)
    for name in names:
        a = rollup_a.get(name)
        b = rollup_b.get(name)
        problem = ProblemDelta(name)
        if a is not None:
            problem.present_a = True
            problem.wall_a = a["wall"]
            problem.solved_a = a["solved"]
        if b is not None:
            problem.present_b = True
            problem.wall_b = b["wall"]
            problem.solved_b = b["solved"]
        diff.problems.append(problem)
    diff.problems.sort(key=lambda p: (-abs(p.delta), p.name))

    # -- Rules: union of the two firing tables -------------------------------
    rules_a = {row.rule: row for row in report_a.rules}
    rules_b = {row.rule: row for row in report_b.rules}
    rule_names = list(rules_a)
    rule_names.extend(r for r in rules_b if r not in rules_a)
    for rule in rule_names:
        a = rules_a.get(rule)
        b = rules_b.get(rule)
        diff.rules.append(
            RuleDelta(
                rule,
                fired_a=a.fired if a else 0,
                fired_b=b.fired if b else 0,
                failed_a=a.failed if a else 0,
                failed_b=b.failed if b else 0,
            )
        )
    diff.rules.sort(
        key=lambda r: (
            -(abs(r.fired_delta) + abs(r.failed_delta)), r.rule
        )
    )
    return diff


def diff_from_files(path_a: str, path_b: str) -> DiffReport:
    """Build a diff from two ``--spans-out`` JSONL dumps."""
    from repro.obs.export import read_spans_jsonl

    spans_a, events_a, header_a = read_spans_jsonl(path_a)
    spans_b, events_b, header_b = read_spans_jsonl(path_b)
    return build_diff(
        spans_a,
        events_a,
        spans_b,
        events_b,
        label_a=path_a,
        label_b=path_b,
        truncated_a=bool(header_a.get("truncated")),
        truncated_b=bool(header_b.get("truncated")),
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _secs(value: float) -> str:
    return f"{value:.3f}s"


def _delta_secs(value: float) -> str:
    return f"{value:+.3f}s"


def render_diff(diff: DiffReport, top: int = 10) -> str:
    """The full ``dryadsynth diff`` text report (top-k culprits first)."""
    lines: List[str] = []
    if diff.truncated:
        lines.append(
            "WARNING: at least one span stream was truncated by the "
            "recorder cap; attribution below is computed from partial "
            "streams."
        )
    a, b = diff.report_a, diff.report_b
    lines.append(
        f"run diff: A={diff.label_a} ({len(a.nodes)} node(s), wall "
        f"{_secs(a.total_wall)}) vs B={diff.label_b} ({len(b.nodes)} "
        f"node(s), wall {_secs(b.total_wall)})"
    )
    lines.append(
        f"wall delta {_delta_secs(diff.total_delta)}: "
        f"{_delta_secs(diff.attributed_delta() - diff.run_self_delta)} in "
        f"{len(diff.nodes)} aligned node(s), "
        f"{_delta_secs(diff.run_self_delta)} in (run) "
        "[parsing, queues, bookkeeping]"
    )
    if diff.solved_lost or diff.solved_gained:
        parts = []
        if diff.solved_lost:
            parts.append(f"lost {', '.join(sorted(diff.solved_lost))}")
        if diff.solved_gained:
            parts.append(f"gained {', '.join(sorted(diff.solved_gained))}")
        lines.append("solved-set: " + "; ".join(parts))

    movers = [p for p in diff.problems if p.delta or not (
        p.present_a and p.present_b)]
    if movers:
        lines.append("")
        lines.append(f"top problem movers (of {len(diff.problems)}):")
        lines.append(
            f"  {'problem':<24} {'wall A':>9} {'wall B':>9} {'delta':>9}  "
            "status"
        )
        for problem in movers[:top]:
            lines.append(
                f"  {problem.name:<24} {_secs(problem.wall_a):>9} "
                f"{_secs(problem.wall_b):>9} {_delta_secs(problem.delta):>9}"
                f"  {problem.status_change}"
            )

    if diff.nodes:
        lines.append("")
        lines.append(f"top node movers (of {len(diff.nodes)} aligned):")
        lines.append(
            f"  {'node':<14} {'fun':<12} {'self A':>9} {'self B':>9} "
            f"{'delta':>9} {'smt A->B':>11}  notes"
        )
        for node in diff.nodes[:top]:
            notes = []
            if node.only_in:
                notes.append(f"only in {node.only_in}")
            if node.drifted:
                notes.append(
                    f"strategy {node.strategy_a or '-'}"
                    f"->{node.strategy_b or '-'}"
                )
            if node.status_a != node.status_b and not node.only_in:
                notes.append(f"{node.status_a}->{node.status_b}")
            if node.problems:
                notes.append("in " + ",".join(node.problems[:2]))
            lines.append(
                f"  {node.node_id:<14} {node.fun:<12} "
                f"{_secs(node.self_a):>9} {_secs(node.self_b):>9} "
                f"{_delta_secs(node.delta):>9} "
                f"{node.smt_rounds_a:>5}->{node.smt_rounds_b:<5} "
                f"{'; '.join(notes)}"
            )

    drifted = diff.strategy_drift
    if drifted:
        lines.append("")
        lines.append(
            f"strategy drift: {len(drifted)} node(s) changed division "
            "strategy between runs"
        )

    changed_rules = [
        r for r in diff.rules if r.fired_delta or r.failed_delta
    ]
    if changed_rules:
        lines.append("")
        lines.append("rule-firing drift:")
        lines.append(
            f"  {'rule':<16} {'fired A->B':>12} {'failed A->B':>13}"
        )
        for rule in changed_rules[:top]:
            lines.append(
                f"  {rule.rule:<16} "
                f"{rule.fired_a:>5}->{rule.fired_b:<5} "
                f"{rule.failed_a:>6}->{rule.failed_b:<5}"
            )

    lines.append("")
    lines.append(
        f"attribution check: node + (run) deltas sum to "
        f"{_delta_secs(diff.attributed_delta())} of "
        f"{_delta_secs(diff.total_delta)} total"
    )
    return "\n".join(lines)
