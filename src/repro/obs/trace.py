"""Request-scoped distributed tracing: W3C-traceparent-style contexts.

The daemon (:mod:`repro.serve`) mints one :class:`TraceContext` per HTTP
submission — or adopts the one the client sent in a ``traceparent`` header —
and that context is the thread tying the whole request together:

- the job's view, its ``/v1/stats`` and ``--results-out`` records and
  its ``queued``, ``dispatched``, ``done`` and ``shed`` events carry
  ``trace_id``;
- the context crosses the process boundary in ``SynthesisJob.params``
  (:func:`inject`/:func:`extract`) without touching the job fingerprint;
- the worker re-roots its :class:`~repro.obs.spans.SpanRecorder` tree under
  a ``worker.request`` span carrying the ids (:func:`worker_span_attrs`),
  so span dumps, the flight-recorder journal and Chrome traces are all
  attributable to the originating request;
- the daemon grafts the worker tree back under its own ``serve.request``
  span, producing one end-to-end tree per request: queue wait → dispatch →
  worker attach → solver spans → SMT rounds.

The header format follows W3C Trace Context (``version-traceid-spanid-
flags``) closely enough that real tracing infrastructure interoperates:
ids are lowercase hex, 32 chars for the trace, 16 for a span, and an
all-zero id is invalid.  Only version ``00`` is emitted; unknown versions
are accepted on parse (per spec) as long as the id fields are well-formed.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Dict, Optional

#: The only version this implementation emits.
TRACEPARENT_VERSION = "00"

#: Sampled flag — every minted context is recorded, so it is always set.
TRACE_FLAGS = "01"

#: ``SynthesisJob.params`` key carrying the serialized context.
PARAMS_KEY = "traceparent"

_TRACEPARENT_RE = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace_id>[0-9a-f]{32})"
    r"-(?P<span_id>[0-9a-f]{16})-(?P<flags>[0-9a-f]{2})$"
)


def _hex_id(nbytes: int) -> str:
    """A random lowercase-hex id that is guaranteed non-zero."""
    while True:
        value = os.urandom(nbytes).hex()
        if any(c != "0" for c in value):
            return value


@dataclass(frozen=True)
class TraceContext:
    """One request's position in a distributed trace."""

    trace_id: str
    span_id: str
    parent_span_id: Optional[str] = None

    def traceparent(self) -> str:
        """The wire form (``00-<trace_id>-<span_id>-01``)."""
        return (
            f"{TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}"
            f"-{TRACE_FLAGS}"
        )

    def child(self) -> "TraceContext":
        """A fresh context one hop below this one (same trace)."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=_hex_id(8),
            parent_span_id=self.span_id,
        )

    def span_attrs(self) -> Dict[str, str]:
        """The ids as span attributes (what every traced span carries)."""
        attrs = {"trace_id": self.trace_id, "trace_span_id": self.span_id}
        if self.parent_span_id:
            attrs["trace_parent_span_id"] = self.parent_span_id
        return attrs


def mint() -> TraceContext:
    """A brand-new root context (the admission path for headerless clients)."""
    return TraceContext(trace_id=_hex_id(16), span_id=_hex_id(8))


def parse_traceparent(header: Optional[str]) -> Optional[TraceContext]:
    """Parse a ``traceparent`` header; ``None`` on anything malformed.

    A malformed header never fails a submission — tracing degrades to a
    freshly minted context instead (the request is still fully traced, it
    just starts a new trace rather than continuing the caller's).
    """
    if not header:
        return None
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if match is None:
        return None
    if match.group("version") == "ff":  # reserved per W3C Trace Context
        return None
    trace_id = match.group("trace_id")
    span_id = match.group("span_id")
    if set(trace_id) == {"0"} or set(span_id) == {"0"}:
        return None
    return TraceContext(trace_id=trace_id, span_id=span_id)


def continue_or_mint(header: Optional[str]) -> TraceContext:
    """Adopt the caller's context as parent, or mint a root context.

    When a valid ``traceparent`` comes in, the returned context keeps the
    caller's ``trace_id`` and records the caller's span as its parent — the
    daemon's request span becomes a child in the caller's trace, which is
    exactly what a service mesh expects.
    """
    parent = parse_traceparent(header)
    if parent is None:
        return mint()
    return parent.child()


# ---------------------------------------------------------------------------
# Process-boundary plumbing (SynthesisJob.params)
# ---------------------------------------------------------------------------


def inject(params: Dict[str, str], ctx: TraceContext) -> None:
    """Serialize ``ctx`` into a job's params (fingerprint-neutral)."""
    params[PARAMS_KEY] = ctx.traceparent()


def extract(params: Optional[Dict[str, str]]) -> Optional[TraceContext]:
    """Recover the context a parent injected (``None`` when untraced)."""
    if not params:
        return None
    return parse_traceparent(params.get(PARAMS_KEY))


def worker_span_attrs(params: Optional[Dict[str, str]]) -> Dict[str, str]:
    """Span attributes for the worker-side ``worker.request`` root span.

    The worker mints its own span id under the parent's trace, so the
    daemon-side request span and the worker-side tree link up as parent and
    child in the same trace.
    """
    ctx = extract(params)
    if ctx is None:
        return {}
    return ctx.child().span_attrs()
