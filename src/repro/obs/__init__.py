"""``repro.obs`` — low-overhead telemetry for the cooperative solver.

Five layers (see ``docs/OBSERVABILITY.md``):

- **Spans** (:mod:`repro.obs.spans`): hierarchical timed regions with typed
  attributes, from the cooperative loop down to individual SMT queries,
  and :class:`~repro.obs.spans.SpanTree`, the one parent/child index whose
  self-time partition every report below attributes.
- **Metrics** (:mod:`repro.obs.metrics`): named counters/gauges/histograms
  with mergeable snapshots — the cross-process aggregation format.
- **Exports** (:mod:`repro.obs.export`, :mod:`repro.obs.profile`,
  :mod:`repro.obs.chrome`): the one on-disk span format
  (``repro-spans/1`` JSONL, read through one torn-tail line scanner),
  Prometheus text, Chrome traces and the ``dryadsynth profile`` report.
  On top of the dumps sit the forensics reports: ``dryadsynth explain``
  (:mod:`repro.obs.explain`) for one run and ``dryadsynth diff``
  (:mod:`repro.obs.diff`) for run-over-run regression attribution.
- **Live telemetry** (:mod:`repro.obs.live`): an in-process HTTP endpoint
  serving ``/metrics``, ``/healthz`` and ``/jobs`` while a batch runs
  (``dryadsynth batch --serve-telemetry PORT``).
- **Flight recorder** (:mod:`repro.obs.flight`): a crash-resistant span
  dump of recent telemetry, recovered as ``JobResult.postmortem`` when a
  worker dies (``dryadsynth postmortem <journal>``); ``explain`` and
  ``profile`` read it like any other dump.

Spans name layers, not functions: a per-function hot spot comes from
running the same solver a worker runs under cProfile
(``python -m cProfile -s tottime -m repro.cli FILE.sl``).

Recording is **disabled by default**.  Instrumented modules call the
ambient helpers in this module (:func:`span`, :func:`event`,
:func:`metrics`); until a recorder is installed with :func:`recording`
every call is a near-free no-op, so the instrumentation can stay inline in
hot paths.  Install a recorder around a region to capture it::

    from repro import obs

    with obs.recording() as recorder:
        solver.synthesize(problem)
    print(recorder.metrics.to_prometheus())
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import fields as _dataclass_fields
from typing import Dict, Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import (
    NULL_SPAN,
    ObsEvent,
    Span,
    SpanRecorder,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsEvent",
    "Span",
    "SpanRecorder",
    "active",
    "enabled",
    "event",
    "merge_job_telemetry",
    "metrics",
    "publish_stats",
    "recording",
    "span",
]

#: The ambient recorder; None means telemetry is off (the default).
_active: Optional[SpanRecorder] = None

#: Sink for metric increments made while no recorder is installed.  Writing
#: to it is as cheap as writing to a real registry and keeps call sites
#: branch-free; it is never exported, so disabled-mode recording is a no-op
#: from the outside.
_disabled_registry = MetricsRegistry()


def active() -> Optional[SpanRecorder]:
    """The installed recorder, or None when telemetry is disabled."""
    return _active


def enabled() -> bool:
    return _active is not None


def span(name: str, **attrs):
    """Open a span on the ambient recorder (no-op when disabled)."""
    recorder = _active
    if recorder is None:
        return NULL_SPAN
    return recorder.span(name, **attrs)


def event(name: str, **attrs) -> None:
    """Record an instant event on the ambient recorder (no-op when disabled)."""
    recorder = _active
    if recorder is not None:
        recorder.add_event(name, **attrs)


def metrics() -> MetricsRegistry:
    """The ambient metrics registry.

    While no recorder is installed this returns a private throwaway
    registry, so unconditional ``obs.metrics().counter(...).inc()`` calls
    are safe (and cheap) everywhere.
    """
    recorder = _active
    return recorder.metrics if recorder is not None else _disabled_registry


@contextmanager
def recording(recorder: Optional[SpanRecorder] = None):
    """Install ``recorder`` (or a fresh one) as the ambient recorder.

    Nested recordings stack: the innermost recorder wins and the previous
    one is restored on exit.  Yields the installed recorder.
    """
    global _active
    if recorder is None:
        recorder = SpanRecorder()
    previous = _active
    _active = recorder
    try:
        yield recorder
    finally:
        _active = previous


def publish_stats(stats, registry: Optional[MetricsRegistry] = None,
                  prefix: str = "synth.") -> None:
    """Mirror a :class:`SynthesisStats`-style dataclass into counters.

    Every integer field becomes a ``synth.<field>`` counter increment, so
    the legacy per-run dataclass and the registry report the same numbers.
    Boolean fields are skipped (they are flags, not tallies).
    """
    registry = registry if registry is not None else metrics()
    for spec in _dataclass_fields(stats):
        value = getattr(stats, spec.name)
        if isinstance(value, bool) or not isinstance(value, int):
            continue
        if value:
            registry.counter(prefix + spec.name).inc(value)


def merge_job_telemetry(
    telemetry: Optional[Dict],
    name: str = "job",
    status: str = "",
    wall_time: Optional[float] = None,
    parent_id: Optional[int] = None,
    attrs: Optional[Dict] = None,
) -> Optional[int]:
    """Fold one worker's serialized telemetry into the ambient recorder.

    No-op when telemetry is disabled or the payload is empty.  The worker's
    span tree is re-rooted under a ``job`` span carrying the job's name and
    status (plus any extra ``attrs`` — the daemon stamps trace ids here);
    ``parent_id`` nests that root under an existing span, how a
    ``serve.request`` span adopts its worker tree.  Its metric snapshot
    merges into the ambient registry.  Returns the grafted root span id.
    """
    recorder = _active
    if recorder is None or not telemetry:
        return None
    root_attrs = {"name": name, "status": status}
    if attrs:
        root_attrs.update(attrs)
    root_id = recorder.merge_serialized(
        telemetry.get("spans"),
        root_name="job",
        attrs=root_attrs,
        wall=wall_time,
        parent_id=parent_id,
    )
    recorder.metrics.merge(telemetry.get("metrics"))
    # Per-job rusage lands as fleet-wide gauges/counters.
    rusage = telemetry.get("rusage")
    if rusage:
        peak = rusage.get("peak_rss_bytes")
        if peak:
            recorder.metrics.gauge("process.peak_rss_bytes").set_max(
                float(peak)
            )
        if rusage.get("user_cpu"):
            recorder.metrics.counter("process.user_cpu_seconds").inc(
                rusage["user_cpu"]
            )
        if rusage.get("sys_cpu"):
            recorder.metrics.counter("process.sys_cpu_seconds").inc(
                rusage["sys_cpu"]
            )
    return root_id
