"""Chrome/Perfetto trace export (``--trace-chrome``).

Converts a span stream into the Chrome ``trace_event`` JSON format, viewable
in ``chrome://tracing`` or https://ui.perfetto.dev.  Spans become complete
(``ph: "X"``) events with microsecond timestamps; instant events (including
forensics records) become ``ph: "i"`` instants bound to their process lane.

The mapping is deliberately lossless where it matters for reading a trace:

- ``pid`` comes from the recording process, so a merged multi-worker batch
  trace shows one track lane per worker process (the recorder nests spans
  per thread but ships only the process id, so ``tid`` mirrors ``pid``).
- Span attrs ride in ``args`` verbatim; the subproblem ``node`` attr is what
  lets a Perfetto query group slices by graph node.
- Instant events carry no pid of their own; each is placed on the lane of
  its enclosing span when one exists.
- The stream's ``truncated`` flag (recorder cap hit) is recorded as trace
  metadata so a partial trace is identifiable as such.
"""

from __future__ import annotations

import json
from typing import Dict, Sequence

from repro.obs.spans import ObsEvent, Span

#: Trace-event time unit is microseconds.
_US = 1_000_000.0


def span_to_trace_event(span: Span) -> dict:
    """One span as a Chrome complete (``ph: "X"``) event."""
    record = {
        "name": span.name,
        "ph": "X",
        "ts": round(span.start * _US, 3),
        "dur": round(span.wall * _US, 3),
        "pid": span.pid,
        "tid": span.pid,
        "cat": "span",
    }
    args: Dict = dict(span.attrs)
    if span.status != "ok":
        args["status"] = span.status
    if args:
        record["args"] = args
    return record


def event_to_trace_event(event: ObsEvent, pid: int = 0) -> dict:
    """One instant event as a Chrome thread-scoped instant (``ph: "i"``)."""
    record = {
        "name": event.name,
        "ph": "i",
        "ts": round(event.elapsed * _US, 3),
        "pid": pid,
        "tid": pid,
        "s": "t",
        "cat": event.domain,
    }
    if event.attrs:
        record["args"] = dict(event.attrs)
    return record


def build_trace(
    spans: Sequence[Span],
    events: Sequence[ObsEvent] = (),
    truncated: bool = False,
) -> dict:
    """The full trace object (``traceEvents`` + metadata)."""
    pid_of_span = {span.span_id: span.pid for span in spans}
    trace_events = [span_to_trace_event(span) for span in spans]
    trace_events.extend(
        event_to_trace_event(event, pid=pid_of_span.get(event.span_id, 0))
        for event in events
    )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "format": "repro-chrome/1",
            "truncated": truncated,
            "spans": len(spans),
            "events": len(events),
        },
    }


def write_trace_chrome(
    path: str,
    spans: Sequence[Span],
    events: Sequence[ObsEvent] = (),
    truncated: bool = False,
) -> None:
    """Write a Chrome trace file from spans/events."""
    with open(path, "w") as handle:
        json.dump(build_trace(spans, events, truncated=truncated), handle)
        handle.write("\n")
