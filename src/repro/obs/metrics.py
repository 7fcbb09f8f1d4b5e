"""Named counters, gauges and histograms with mergeable snapshots.

The registry is the cross-process currency of the telemetry layer: every
worker keeps one, serializes a :meth:`MetricsRegistry.snapshot` into its
:class:`~repro.service.jobs.JobResult`, and the parent folds the snapshots
together with :meth:`MetricsRegistry.merge` so a batch reports fleet-wide
totals.  Metric names are dotted (``smt.rounds``, ``cache.hits``); the
Prometheus text dump rewrites dots to underscores and prefixes ``repro_``.

Merge semantics: counters add, gauges keep the maximum, histograms add
bucket-wise (bounds must match; mismatched histograms fall back to merging
only ``count`` and ``sum``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds (seconds-flavoured, exponential).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Help strings for the well-known metric names (dotted form).  Metrics not
#: listed here get a generated placeholder, so every family in the text dump
#: still carries a ``# HELP`` line (the exposition format expects one).
METRIC_HELP: Dict[str, str] = {
    "smt.checks": "SmtSolver.solve calls",
    "smt.rounds": "DPLL(T) rounds across all checks",
    "smt.lemmas": "theory lemmas learned",
    "smt.theory_conflicts": "theory-layer conflicts",
    "smt.simplex_pivots": "simplex pivot operations",
    "smt.solve_seconds": "per-query SMT latency",
    "smt.memo_hits": "semantic query-memo hits (decided result served from cache)",
    "smt.memo_misses": "semantic query-memo misses",
    "sat.conflicts": "CDCL conflicts",
    "sat.decisions": "CDCL decisions",
    "sat.learnts_deleted": "learned clauses deleted by DB reduction",
    "sat.learnts": "learned-clause DB high-water mark",
    "sat.vars": "SAT variable high-water mark",
    "cache.hits": "result-cache hits",
    "cache.misses": "result-cache misses",
    "obs.spans_dropped": "telemetry spans/events dropped at the recorder cap",
    "process.peak_rss_bytes": "peak resident set size (getrusage high-water)",
    "process.user_cpu_seconds": "user-mode CPU time accumulated by jobs",
    "process.sys_cpu_seconds": "kernel-mode CPU time accumulated by jobs",
    "pool.jobs_completed": "worker-pool job completions",
    "pool.jobs_running": "jobs currently assigned to a worker",
    "pool.jobs_queued": "jobs admitted but not yet assigned",
    "pool.workers_alive": "live worker processes",
    "pool.queue_wait_seconds": "submission-to-assignment latency",
    "pool.postmortems_recovered": "flight-recorder post-mortems recovered",
    "pool.peak_rss_bytes": "largest worker RSS the scheduler has observed",
    "pool.children_peak_rss_bytes":
        "getrusage(RUSAGE_CHILDREN) high-water — cross-checks worker peaks",
    "pool.oom_budget_kills": "workers terminated for exceeding --max-rss-mb",
    "serve.latency_seconds": "submit-to-done latency of served requests",
}


def register_metric_help(name: str, text: str) -> None:
    """Register (or override) the ``# HELP`` text for a dotted metric name."""
    METRIC_HELP[name] = text


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value; merges take the maximum across processes."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """A fixed-bound bucket histogram (Prometheus-style, cumulative on dump)."""

    __slots__ = ("name", "bounds", "counts", "sum", "count")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # last bucket is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """A process-local namespace of metrics, snapshot-able and mergeable."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- Accessors (memoized; repeated lookups return the same instrument) ----

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, bounds)
        return metric

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- Serialization ---------------------------------------------------------

    def snapshot(self) -> Dict:
        """A JSON-able snapshot (the worker-to-parent wire format)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for n, h in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: Optional[Dict]) -> None:
        """Fold another registry's snapshot into this one."""
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set_max(value)
        for name, data in snapshot.get("histograms", {}).items():
            bounds = tuple(data.get("bounds", DEFAULT_BUCKETS))
            hist = self.histogram(name, bounds)
            if hist.bounds == bounds and len(hist.counts) == len(data["counts"]):
                for index, count in enumerate(data["counts"]):
                    hist.counts[index] += count
            # Mismatched bounds: totals still merge, buckets are dropped.
            hist.sum += data.get("sum", 0.0)
            hist.count += data.get("count", 0)

    # -- Prometheus text dump --------------------------------------------------

    def to_prometheus(self, prefix: str = "repro_") -> str:
        """The text exposition format (``--metrics-out`` and ``/metrics``).

        Conforms to the Prometheus text format (version 0.0.4): every metric
        family gets ``# HELP`` and ``# TYPE`` lines, counters are suffixed
        ``_total``, histograms expose cumulative ``_bucket`` series ending in
        ``le="+Inf"`` plus ``_sum`` and ``_count``.
        """
        lines: List[str] = []

        def head(metric: str, name: str, kind: str) -> None:
            help_text = METRIC_HELP.get(name, f"repro metric {name}")
            lines.append(f"# HELP {metric} {_escape_help(help_text)}")
            lines.append(f"# TYPE {metric} {kind}")

        for name, counter in sorted(self._counters.items()):
            metric = prefix + _sanitize(name) + "_total"
            head(metric, name, "counter")
            lines.append(f"{metric} {counter.value}")
        for name, gauge in sorted(self._gauges.items()):
            metric = prefix + _sanitize(name)
            head(metric, name, "gauge")
            lines.append(f"{metric} {_format(gauge.value)}")
        for name, hist in sorted(self._histograms.items()):
            metric = prefix + _sanitize(name)
            head(metric, name, "histogram")
            cumulative = 0
            for bound, count in zip(hist.bounds, hist.counts):
                cumulative += count
                lines.append(
                    f'{metric}_bucket{{le="{_format(bound)}"}} {cumulative}'
                )
            lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
            lines.append(f"{metric}_sum {_format(hist.sum)}")
            lines.append(f"{metric}_count {hist.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
