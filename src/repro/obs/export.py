"""Telemetry exports: JSONL span sink and Prometheus text dump.

The JSONL format is line-oriented so huge runs stream without a giant
in-memory document:

- line 1: a header record ``{"format": "repro-spans/1", ...}``;
- then one record per span (``{"span": {...}}``) and one per instant event
  (``{"event": {...}}``), in completion order.

``dryadsynth profile`` consumes this file; see :mod:`repro.obs.profile`.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, TextIO, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import ObsEvent, Span, SpanRecorder

SPANS_FORMAT = "repro-spans/1"


def write_spans_jsonl(recorder: SpanRecorder, path: str) -> None:
    """Write a recorder's span and event streams as JSONL."""
    with open(path, "w") as handle:
        dump_spans_jsonl(recorder, handle)


def dump_spans_jsonl(recorder: SpanRecorder, handle: TextIO) -> None:
    header = {
        "format": SPANS_FORMAT,
        "pid": recorder.pid,
        "dropped": recorder.dropped,
        "truncated": recorder.truncated,
        "num_spans": len(recorder.spans),
        "num_events": len(recorder.events),
    }
    handle.write(json.dumps(header) + "\n")
    for span in recorder.spans:
        handle.write(json.dumps({"span": span.to_json()}) + "\n")
    for event in recorder.events:
        handle.write(json.dumps({"event": event.to_json()}) + "\n")
    # The sampled stack profile (when a sampler ran) rides in the same dump
    # as its own record kind; older readers skip unknown kinds.
    profile = getattr(recorder, "profile", None)
    if profile is not None:
        handle.write(json.dumps({"profile": profile.to_json()}) + "\n")


def read_jsonl_tolerant(path: str) -> List[Dict]:
    """Read a JSONL file whose *final* line may be torn mid-write.

    The torn-tail contract of the repo's append-only stores (span dumps
    here; the sampler's ``.collapsed`` reader follows it too): a writer
    killed mid-append (SIGKILL, hard deadline, power loss) leaves a
    truncated trailing line behind, and that torn tail — including one cut
    in the middle of a multi-byte UTF-8 character, which a text-mode read
    would die on before reaching any line — is silently dropped so every
    complete record before it is still recovered.  A corrupt *interior*
    line still raises, because that means the file is damaged, not merely
    unfinished.
    """
    with open(path, "rb") as handle:
        raw_lines = handle.read().split(b"\n")
    last = max(
        (i for i, raw in enumerate(raw_lines) if raw.strip()), default=-1
    )
    records: List[Dict] = []
    for index, raw in enumerate(raw_lines):
        if not raw.strip():
            continue
        try:
            records.append(json.loads(raw))
        except (json.JSONDecodeError, UnicodeDecodeError):
            if index == last:
                continue  # torn tail from an interrupted append
            raise
    return records


def read_spans_jsonl(path: str) -> Tuple[List[Span], List[ObsEvent], Dict]:
    """Load a spans JSONL file; returns ``(spans, events, header)``.

    Unknown record kinds are skipped so future writers stay readable;
    torn-tail tolerance follows :func:`read_jsonl_tolerant`.
    """
    spans: List[Span] = []
    events: List[ObsEvent] = []
    header: Dict = {}
    for record in read_jsonl_tolerant(path):
        if "span" in record:
            spans.append(Span.from_json(record["span"]))
        elif "event" in record:
            events.append(ObsEvent.from_json(record["event"]))
        elif record.get("format", "").startswith("repro-spans/"):
            header = record
    return spans, events, header


def write_metrics_text(registry: MetricsRegistry, path: str) -> None:
    """Write the registry as Prometheus text exposition format."""
    with open(path, "w") as handle:
        handle.write(registry.to_prometheus())


def telemetry_payload(
    recorder: Optional[SpanRecorder],
    profile=None,
    rusage: Optional[Dict] = None,
) -> Optional[Dict]:
    """The worker-to-parent wire payload stored in ``JobResult.telemetry``.

    ``profile`` (a :class:`~repro.obs.sampler.StackProfile`) and ``rusage``
    (a :func:`repro.obs.rusage.delta` dict) ride along when the job sampled
    stacks / accounted resources; the parent folds them into its own
    recorder and registry exactly like the span tree and metric snapshot.
    """
    if recorder is None:
        return None
    payload = {
        "spans": recorder.to_json(),
        "metrics": recorder.metrics.snapshot(),
    }
    if profile is not None:
        payload["profile"] = profile.to_json()
    if rusage:
        payload["rusage"] = dict(rusage)
    return payload
