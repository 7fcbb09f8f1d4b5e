"""The subproblem-graph explainer (``dryadsynth explain``).

Collates one run's span stream and forensics events into a *search
explanation*: the subproblem tree annotated with per-node wall/SMT
attribution, a Figure 7/8 rule-firing table, and — for unsolved runs — the
failure frontier (deepest unsolved nodes, last division strategy, last
deduction rule, last counterexample).

Attribution follows the same discipline as :mod:`repro.obs.profile`: each
span's *self* time (wall minus child walls) is charged to the nearest
enclosing span carrying a ``node`` attribute; time outside any node-attributed
span lands in a ``(run)`` bucket.  The buckets therefore partition the traced
wall clock exactly — per-node percentages sum to 100, so the tree is an
attribution, not a collection of timers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs import forensics
from repro.obs.spans import ObsEvent, Span, SpanTree

#: Bucket for self time outside any node-attributed span (parsing, queue
#: bookkeeping, result assembly).
RUN_BUCKET = "(run)"


@dataclass
class NodeReport:
    """Everything the explainer knows about one subproblem-graph node."""

    node_id: str
    fun: str = "?"
    parent: Optional[str] = None
    strategy: Optional[str] = None  # strategy of the creating edge
    depth: int = 0
    children: List[str] = field(default_factory=list)
    extra_parents: int = 0  # graph.share count (DAG sharing)
    solved_how: Optional[str] = None  # direct | propagated | None (unsolved)
    last_height: Optional[int] = None
    self_wall: float = 0.0
    smt_rounds: int = 0
    smt_calls: int = 0
    cegis_iters: int = 0
    last_strategy: Optional[str] = None  # last divide.choice/reject on node
    last_rule: Optional[str] = None  # last deduct.rule resolved to node
    last_cex: Optional[str] = None
    rejects: Dict[str, int] = field(default_factory=dict)
    #: Problems (root ``synth`` spans) this node was worked under — node IDs
    #: are problem-independent, so a shared subproblem can list several.
    problems: List[str] = field(default_factory=list)

    @property
    def solved(self) -> bool:
        return self.solved_how is not None

    def note_problem(self, problem: Optional[str]) -> None:
        if problem and problem not in self.problems:
            self.problems.append(problem)


@dataclass
class RuleRow:
    """Aggregated outcomes of one deduction rule across the run."""

    rule: str
    fired: int = 0
    failed: int = 0
    attempts: int = 0
    merges: int = 0  # sum of the ``count`` attr (merge-style rules)
    delta: int = 0  # summed spec-size delta of firings


@dataclass
class RequestRow:
    """One daemon request (``serve.request`` span) found in the stream."""

    trace_id: Optional[str]
    serve_id: Optional[str]
    client: Optional[str]
    problem: Optional[str]
    status: Optional[str]
    latency: float
    queue_wait: float = 0.0
    from_cache: bool = False


@dataclass
class ExplainReport:
    """The computed explanation."""

    nodes: Dict[str, NodeReport]
    roots: List[str]
    total_wall: float  # sum of root span walls
    run_self_wall: float  # the (run) bucket
    rules: List[RuleRow]
    solved: bool
    frontier: List[NodeReport]
    truncated: bool = False
    requests: List[RequestRow] = field(default_factory=list)

    def attributed_wall(self) -> float:
        return self.run_self_wall + sum(n.self_wall for n in self.nodes.values())


def build_explain(
    spans: Sequence[Span],
    events: Sequence[ObsEvent],
    truncated: bool = False,
) -> ExplainReport:
    """Collate spans + forensics events into an :class:`ExplainReport`."""
    nodes: Dict[str, NodeReport] = {}

    def node(node_id: str) -> NodeReport:
        report = nodes.get(node_id)
        if report is None:
            report = nodes[node_id] = NodeReport(node_id)
        return report

    order: List[str] = []
    for event in forensics.iter_events(events):
        attrs = event.attrs
        node_id = attrs.get("node")
        if event.name == forensics.GRAPH_NODE and isinstance(node_id, str):
            report = node(node_id)
            report.fun = str(attrs.get("fun", report.fun))
            report.depth = int(attrs.get("depth", 0) or 0)
            parent = attrs.get("parent")
            if isinstance(parent, str) and parent:
                report.parent = parent
                node(parent)  # ensure existence even across truncation
            strategy = attrs.get("strategy")
            if isinstance(strategy, str):
                report.strategy = strategy
            if node_id not in order:
                order.append(node_id)
        elif event.name == forensics.GRAPH_SHARE and isinstance(node_id, str):
            node(node_id).extra_parents += 1
        elif event.name == forensics.GRAPH_SOLVE and isinstance(node_id, str):
            node(node_id).solved_how = str(attrs.get("how", "direct"))

    # Parent/child links (preserving event order for stable rendering).
    for node_id in order:
        report = nodes[node_id]
        if report.parent is not None and report.parent in nodes:
            nodes[report.parent].children.append(node_id)
    roots = [n for n in order if nodes[n].parent is None]

    # -- Span attribution: self time to nearest node-attributed ancestor -----
    tree = SpanTree(spans)
    owners = {span.span_id: tree.nearest_attr(span.span_id, "node")
              for span in spans}
    by_owner = tree.attribute(lambda span: owners[span.span_id])
    run_self = by_owner.pop(None, 0.0)
    for owner, self_wall in by_owner.items():
        node(owner).self_wall = self_wall
    for span in spans:
        owner = owners[span.span_id]
        if owner is None:
            continue
        report = nodes[owner]
        report.note_problem(tree.nearest_attr(span.span_id, "problem"))
        if span.name == "smt.solve":
            report.smt_calls += 1
            rounds = span.attrs.get("rounds")
            if rounds is not None:
                report.smt_rounds += int(rounds)

    # -- Event-to-node resolution for rules / choices / cexes ----------------
    rules: Dict[str, RuleRow] = {}
    for event in forensics.iter_events(events):
        attrs = event.attrs
        owner = attrs.get("node")
        if not isinstance(owner, str) or not owner:
            owner = tree.nearest_attr(event.span_id, "node")
        report = node(owner) if owner else None
        if event.name == forensics.DEDUCT_RULE:
            rule_name = str(attrs.get("rule", "?"))
            row = rules.get(rule_name)
            if row is None:
                row = rules[rule_name] = RuleRow(rule_name)
            outcome = attrs.get("outcome")
            if outcome == "fired":
                row.fired += 1
            elif outcome == "failed":
                row.failed += 1
            else:
                row.attempts += 1
            if attrs.get("count") is not None:
                row.merges += int(attrs["count"])
            if outcome == "fired" and attrs.get("delta") is not None:
                row.delta += int(attrs["delta"])
            if report is not None:
                report.last_rule = rule_name
        elif event.name in (forensics.DIVIDE_CHOICE, forensics.DIVIDE_REJECT):
            if report is not None:
                strategy = attrs.get("strategy")
                if isinstance(strategy, str):
                    report.last_strategy = strategy
                if event.name == forensics.DIVIDE_REJECT:
                    reason = str(attrs.get("reason", "?"))
                    report.rejects[reason] = report.rejects.get(reason, 0) + 1
        elif event.name == forensics.CEGIS_ITER:
            if report is not None:
                report.cegis_iters += 1
                if attrs.get("height") is not None:
                    report.last_height = int(attrs["height"])
        elif event.name == forensics.CEGIS_CEX:
            if report is not None and attrs.get("cex") is not None:
                report.last_cex = str(attrs["cex"])

    # -- Daemon requests: serve.request spans minted at HTTP admission ------
    requests: List[RequestRow] = []
    for span in spans:
        if span.name != "serve.request":
            continue
        queue_wait = sum(
            (child.wall for child in tree.children.get(span.span_id, ())
             if child.name == "serve.queue_wait"),
            0.0,
        )
        requests.append(
            RequestRow(
                trace_id=span.attrs.get("trace_id"),
                serve_id=span.attrs.get("serve_id"),
                client=span.attrs.get("client"),
                problem=span.attrs.get("problem"),
                status=span.attrs.get("job_status"),
                latency=span.wall,
                queue_wait=queue_wait,
                from_cache=bool(span.attrs.get("from_cache")),
            )
        )
    requests.sort(key=lambda row: -row.latency)

    solved = bool(roots) and all(nodes[r].solved for r in roots)
    unsolved = [nodes[n] for n in order if not nodes[n].solved]
    unsolved.sort(key=lambda n: (-n.depth, -n.self_wall))
    frontier = [] if solved else unsolved

    rule_rows = sorted(
        rules.values(), key=lambda r: (-(r.fired + r.failed + r.attempts), r.rule)
    )
    return ExplainReport(
        nodes=nodes,
        roots=roots,
        total_wall=tree.total_wall,
        run_self_wall=run_self,
        rules=rule_rows,
        solved=solved,
        frontier=frontier,
        truncated=truncated,
        requests=requests,
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _node_line(report: NodeReport, total: float) -> str:
    state = f"solved:{report.solved_how}" if report.solved else "UNSOLVED"
    pct = 100.0 * report.self_wall / total if total > 0 else 0.0
    parts = [
        f"{report.node_id}",
        f"{report.fun}",
        f"[{state}]",
        f"self {report.self_wall:.3f}s ({pct:.1f}%)",
    ]
    if report.smt_calls:
        parts.append(f"smt {report.smt_rounds}r/{report.smt_calls}q")
    if report.cegis_iters:
        parts.append(f"cegis {report.cegis_iters}it")
    if report.extra_parents:
        parts.append(f"shared +{report.extra_parents}")
    return "  ".join(parts)


def _render_tree(
    report: ExplainReport, node_id: str, prefix: str, is_last: bool,
    lines: List[str], seen: set,
) -> None:
    node = report.nodes[node_id]
    connector = "`- " if is_last else "|- "
    label = f"[{node.strategy}] " if node.strategy else ""
    lines.append(prefix + connector + label + _node_line(node, report.total_wall))
    if node_id in seen:  # sharing cycle guard; the DAG is rendered as a tree
        return
    seen.add(node_id)
    child_prefix = prefix + ("   " if is_last else "|  ")
    for index, child in enumerate(node.children):
        _render_tree(
            report, child, child_prefix, index == len(node.children) - 1,
            lines, seen,
        )


def render_explain(report: ExplainReport) -> str:
    """The full ``dryadsynth explain`` text report."""
    lines: List[str] = []
    if report.truncated:
        lines.append(
            "WARNING: span stream was truncated by the recorder cap; "
            "attribution below is computed from a partial stream."
        )
    total = report.total_wall
    attributed = report.attributed_wall()
    pct = 100.0 * attributed / total if total > 0 else 100.0
    lines.append(
        f"subproblem tree: {len(report.nodes)} node(s), traced wall "
        f"{total:.3f}s, attributed {pct:.1f}%"
    )
    seen: set = set()
    for index, root in enumerate(report.roots):
        _render_tree(
            report, root, "", index == len(report.roots) - 1, lines, seen
        )
    run_pct = 100.0 * report.run_self_wall / total if total > 0 else 0.0
    lines.append(
        f"   {RUN_BUCKET}  self {report.run_self_wall:.3f}s ({run_pct:.1f}%)"
        "  [parsing, queues, bookkeeping]"
    )

    if report.requests:
        lines.append("")
        lines.append("daemon requests (slowest first):")
        lines.append(
            f"  {'trace_id':<32} {'client':<12} {'problem':<20} "
            f"{'status':<8} {'queue':>8} {'latency':>8}"
        )
        for row in report.requests:
            status = row.status or "?"
            if row.from_cache:
                status += "*"
            lines.append(
                f"  {row.trace_id or '-':<32} {row.client or '-':<12} "
                f"{row.problem or '-':<20} {status:<8} "
                f"{row.queue_wait:>7.3f}s {row.latency:>7.3f}s"
            )
        if any(row.from_cache for row in report.requests):
            lines.append("  (* = served from the result cache)")

    if report.rules:
        lines.append("")
        lines.append("deduction rules (Figures 7/8):")
        lines.append(
            f"  {'rule':<16} {'fired':>6} {'failed':>7} {'attempts':>9} "
            f"{'merges':>7} {'delta':>6}"
        )
        for row in report.rules:
            lines.append(
                f"  {row.rule:<16} {row.fired:>6} {row.failed:>7} "
                f"{row.attempts:>9} {row.merges:>7} {row.delta:>+6}"
            )

    if not report.solved:
        lines.append("")
        lines.append("failure frontier (deepest unsolved first):")
        if not report.frontier:
            lines.append("  (no unsolved nodes recorded)")
        for node in report.frontier:
            detail = [
                f"depth {node.depth}",
                f"self {node.self_wall:.3f}s",
            ]
            if node.last_strategy:
                detail.append(f"last strategy {node.last_strategy}")
            elif node.strategy:
                detail.append(f"via {node.strategy}")
            if node.last_rule:
                detail.append(f"last rule {node.last_rule}")
            if node.last_height is not None:
                detail.append(f"height {node.last_height}")
            if node.rejects:
                rejected = ", ".join(
                    f"{reason} x{count}"
                    for reason, count in sorted(node.rejects.items())
                )
                detail.append(f"rejected [{rejected}]")
            lines.append(f"  {node.node_id} {node.fun}: " + ", ".join(detail))
            if node.last_cex:
                lines.append(f"      last counterexample: {node.last_cex}")
    return "\n".join(lines)


def explain_text(
    spans: Sequence[Span],
    events: Sequence[ObsEvent],
    truncated: bool = False,
) -> str:
    """Convenience wrapper: build and render in one call."""
    return render_explain(build_explain(spans, events, truncated=truncated))
