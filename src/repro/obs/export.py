"""Telemetry exports: JSONL span sink and Prometheus text dump.

The JSONL format is line-oriented so huge runs stream without a giant
in-memory document:

- line 1: a header record ``{"format": "repro-spans/1", ...}``;
- then one record per span (``{"span": {...}}``) and one per instant event
  (``{"event": {...}}``), in completion order.

A crash flight journal (:mod:`repro.obs.flight`) is the same format written
one record at a time, plus journal-only ``note``/``kill`` records that the
span readers skip.  ``dryadsynth profile``/``explain``/``diff`` consume
either; all of them read through :func:`scan_lines`.
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


def scan_lines(path: str) -> Tuple[List, bool, List[Tuple[int, ValueError]]]:
    """Parse a JSONL file whose *final* line may be torn mid-write.

    The torn-tail contract of the repo's append-only stores (span dumps
    and flight journals): a writer killed mid-append (SIGKILL, hard
    deadline, power loss) leaves a truncated trailing line behind, and
    that torn tail — including one cut in the middle of a multi-byte UTF-8
    character, which is why the read is binary — is dropped so every
    complete record before it is still recovered.  A damaged line is one
    ``json.loads`` rejects with a ``ValueError`` (``json.JSONDecodeError``
    and ``UnicodeDecodeError`` both are).  Returns ``(records, torn,
    damaged)``: ``torn`` says the final line was dropped, and ``damaged``
    lists each damaged *interior* line as ``(line number, error)`` —
    reported, not raised, so each caller decides whether damage is fatal.
    """
    with open(path, "rb") as handle:
        raw_lines = handle.read().split(b"\n")
    last = max(
        (i for i, raw in enumerate(raw_lines) if raw.strip()), default=-1
    )
    records: List = []
    damaged: List[Tuple[int, ValueError]] = []
    torn = False
    for index, raw in enumerate(raw_lines):
        if not raw.strip():
            continue
        try:
            records.append(json.loads(raw))
        except ValueError as exc:
            if index == last:
                torn = True
            else:
                damaged.append((index + 1, exc))
    return records, torn, damaged


def read_jsonl(path: str) -> List[Dict]:
    """A JSONL file's records; a torn tail is dropped, interior damage raises."""
    records, _, damaged = scan_lines(path)
    if damaged:
        raise damaged[0][1]
    return records


def read_spans_jsonl(path: str) -> Tuple[List[Span], List[ObsEvent], Dict]:
    """Load a spans JSONL file; returns ``(spans, events, header)``.

    Unknown record kinds (a flight journal's ``note``/``kill``, the sampled
    ``profile`` record older dumps carry) are skipped so journals, older
    dumps and future writers stay readable; torn-tail tolerance follows
    :func:`read_jsonl`.
    """
    spans: List[Span] = []
    events: List[ObsEvent] = []
    header: Dict = {}
    for record in read_jsonl(path):
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
    rusage: Optional[Dict] = None,
) -> Optional[Dict]:
    """The worker-to-parent wire payload stored in ``JobResult.telemetry``.

    ``rusage`` (a :func:`repro.obs.rusage.delta` dict) rides along when
    the job accounted resources; the parent folds it into its own registry
    exactly like the span tree and metric snapshot.
    """
    if recorder is None:
        return None
    payload = {
        "spans": recorder.to_json(),
        "metrics": recorder.metrics.snapshot(),
    }
    if rusage:
        payload["rusage"] = dict(rusage)
    return payload
