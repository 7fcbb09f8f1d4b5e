"""Per-phase time attribution over a span stream (``dryadsynth profile``).

Answers "where did the budget go": for every span name (phase) the report
shows *cumulative* wall time (time with such a span open, excluding nested
spans of the same name so recursion is not double-counted) and *self* wall
time (cumulative minus time spent in child spans).  Self times partition
the traced wall clock exactly — they sum to the total of the root spans —
which is what makes the table trustworthy as an attribution, not just a
collection of timers.  A second table ranks the hottest individual SMT
queries (``smt.solve`` spans) by wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.spans import Span, SpanTree

SMT_SPAN_NAME = "smt.solve"


@dataclass
class PhaseRow:
    """Aggregated attribution for one span name."""

    name: str
    count: int = 0
    cum_wall: float = 0.0
    self_wall: float = 0.0
    cum_cpu: float = 0.0
    errors: int = 0


@dataclass
class ProfileReport:
    """The computed attribution: per-phase rows plus run totals."""

    phases: List[PhaseRow]
    total_wall: float  # sum of root span walls = the traced wall clock
    total_spans: int
    roots: int
    #: Per-process dark time (see :func:`compute_dark_time`), appended with
    #: a default so positional constructions elsewhere keep working.
    dark: List[Dict] = field(default_factory=list)

    def phase(self, name: str) -> Optional[PhaseRow]:
        for row in self.phases:
            if row.name == name:
                return row
        return None


def compute_dark_time(
    spans: Sequence[Span], tree: Optional[SpanTree] = None
) -> List[Dict]:
    """Wall time inside each process's trace window but outside any root span.

    For every pid the window runs from its earliest span start to its
    latest span end; "dark" is the part of that window not covered by the
    union of the pid's *root*-span intervals — time the process spent where
    no instrumented region was open (imports, serialization, scheduler
    glue).  Computed purely from spans.
    """
    if tree is None:
        tree = SpanTree(spans)
    by_pid: Dict[int, List[Span]] = {}
    for span in spans:
        by_pid.setdefault(span.pid, []).append(span)
    out: List[Dict] = []
    for pid in sorted(by_pid):
        group = by_pid[pid]
        window_start = min(s.start for s in group)
        window_end = max(s.start + s.wall for s in group)
        intervals = sorted(
            (s.start, s.start + s.wall) for s in tree.roots if s.pid == pid
        )
        covered = 0.0
        cursor = window_start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        window = window_end - window_start
        out.append({
            "pid": pid,
            "window": round(window, 6),
            "covered": round(covered, 6),
            "dark": round(max(0.0, window - covered), 6),
        })
    return out


def build_profile(spans: Sequence[Span]) -> ProfileReport:
    """Aggregate a span stream into per-phase self/cumulative attribution."""
    tree = SpanTree(spans)
    rows = {
        name: PhaseRow(name, self_wall=wall)
        for name, wall in tree.attribute(lambda span: span.name).items()
    }
    for span in spans:
        row = rows[span.name]
        row.count += 1
        row.cum_cpu += span.cpu
        if span.status != "ok":
            row.errors += 1
        # Recursion: only the outermost span of a name adds to its cum.
        if all(a.name != span.name for a in tree.ancestors(span.parent_id)):
            row.cum_wall += span.wall
    phases = sorted(rows.values(), key=lambda r: r.self_wall, reverse=True)
    return ProfileReport(phases, tree.total_wall, len(spans), len(tree.roots),
                         dark=compute_dark_time(spans, tree))


def render_profile(report: ProfileReport) -> str:
    """The per-phase attribution table, self-time-descending."""
    total = report.total_wall or 1e-12
    lines = [
        f"traced wall clock: {report.total_wall:.3f}s over "
        f"{report.total_spans} spans ({report.roots} roots)",
        "",
        f"{'phase':<18} {'count':>7} {'self(s)':>9} {'self%':>6} "
        f"{'cum(s)':>9} {'cum%':>6} {'cpu(s)':>9}",
    ]
    self_total = 0.0
    for row in report.phases:
        self_total += row.self_wall
        lines.append(
            f"{row.name:<18} {row.count:>7} {row.self_wall:>9.3f} "
            f"{100 * row.self_wall / total:>5.1f}% "
            f"{row.cum_wall:>9.3f} {100 * row.cum_wall / total:>5.1f}% "
            f"{row.cum_cpu:>9.3f}"
            + (f"  ({row.errors} errors)" if row.errors else "")
        )
    lines.append(
        f"{'(total self)':<18} {'':>7} {self_total:>9.3f} "
        f"{100 * self_total / total:>5.1f}%"
    )
    for entry in report.dark:
        window = entry.get("window") or 0.0
        dark = entry.get("dark") or 0.0
        pct = 100 * dark / window if window > 0 else 0.0
        lines.append(
            f"dark time (pid {entry.get('pid', '?')}): {dark:.3f}s "
            f"of {window:.3f}s window ({pct:.1f}%) outside any root span"
        )
    return "\n".join(lines)


def hottest_spans(
    spans: Sequence[Span], name: str = SMT_SPAN_NAME, top: int = 10
) -> List[Span]:
    """The top-k slowest spans of one name (default: individual SMT solves)."""
    matching = [span for span in spans if span.name == name]
    matching.sort(key=lambda span: span.wall, reverse=True)
    return matching[:top]


def render_hottest(spans: Sequence[Span], top: int = 10,
                   name: str = SMT_SPAN_NAME) -> str:
    """The top-k hottest SMT queries with their attributes."""
    hottest = hottest_spans(spans, name, top)
    if not hottest:
        return f"no {name!r} spans recorded"
    lines = [f"top {len(hottest)} hottest {name} spans:"]
    for rank, span in enumerate(hottest, 1):
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(span.attrs.items())
        )
        lines.append(
            f"{rank:>3}. {span.wall:8.4f}s cpu={span.cpu:7.4f}s"
            f" start={span.start:8.3f}s {attrs}"
        )
    return "\n".join(lines)


def profile_text(spans: Sequence[Span], top: int = 10) -> str:
    """The full ``dryadsynth profile`` report for a span stream."""
    report = build_profile(spans)
    return render_profile(report) + "\n\n" + render_hottest(spans, top)
