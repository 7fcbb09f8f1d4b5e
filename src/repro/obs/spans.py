"""Hierarchical spans: timed, attributed, nestable regions of a run.

A :class:`SpanRecorder` owns one span stream and one
:class:`~repro.obs.metrics.MetricsRegistry`.  Code under measurement opens
spans with ``with recorder.span("enum", problem=..., height=...)``; each
span records wall and CPU time, its parent (the innermost span open on the
same thread) and a flat dict of typed attributes.  Instant *events* (the
trace's currency) attach to the same stream without a duration.

Recording is opt-in: the ambient recorder installed by
:func:`repro.obs.recording` is what the instrumented modules talk to, and
when none is installed every ``span()`` call returns a shared no-op — the
disabled path costs one function call and a dict literal, nothing else.

Span trees serialize to JSON (:meth:`SpanRecorder.to_json`) and merge
across processes (:meth:`SpanRecorder.merge_serialized`): the parent
re-roots a worker's tree under a synthetic span, remapping ids in payload
order so repeated merges are deterministic.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Union,
)

AttrValue = Union[str, int, float, bool, None]

#: Spans beyond this cap are dropped (counted), so a pathological run cannot
#: exhaust memory through its own telemetry.
DEFAULT_MAX_SPANS = 250_000


def _coerce_attrs(attrs: Dict) -> Dict[str, AttrValue]:
    """Restrict attribute values to JSON scalars; everything else is str()ed."""
    out: Dict[str, AttrValue] = {}
    for key, value in attrs.items():
        if value is None or isinstance(value, (bool, int, float, str)):
            out[key] = value
        else:
            out[key] = str(value)
    return out


@dataclass
class Span:
    """One completed region of execution."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float  # seconds since the recorder's epoch
    wall: float = 0.0
    cpu: float = 0.0
    attrs: Dict[str, AttrValue] = field(default_factory=dict)
    status: str = "ok"  # ok | error
    pid: int = 0

    def to_json(self) -> Dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "wall": self.wall,
            "cpu": self.cpu,
            "attrs": self.attrs,
            "status": self.status,
            "pid": self.pid,
        }

    @staticmethod
    def from_json(data: Dict) -> "Span":
        return Span(
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            name=data["name"],
            start=data.get("start", 0.0),
            wall=data.get("wall", 0.0),
            cpu=data.get("cpu", 0.0),
            attrs=dict(data.get("attrs", {})),
            status=data.get("status", "ok"),
            pid=data.get("pid", 0),
        )


@dataclass
class ObsEvent:
    """An instant (duration-less) record attached to the span stream."""

    name: str
    elapsed: float
    attrs: Dict[str, AttrValue] = field(default_factory=dict)
    domain: str = "obs"
    span_id: Optional[int] = None

    def to_json(self) -> Dict:
        return {
            "name": self.name,
            "elapsed": self.elapsed,
            "attrs": self.attrs,
            "domain": self.domain,
            "span_id": self.span_id,
        }

    @staticmethod
    def from_json(data: Dict) -> "ObsEvent":
        return ObsEvent(
            name=data["name"],
            elapsed=data.get("elapsed", 0.0),
            attrs=dict(data.get("attrs", {})),
            domain=data.get("domain", "obs"),
            span_id=data.get("span_id"),
        )


class SpanTree:
    """The parent/child index of a span stream: the one attribution core.

    A span whose parent is absent from the stream (a merge root, a tree cut
    off by a crash) is a root.  A span's *self* wall is its wall minus its
    children's walls, so self walls partition :attr:`total_wall`, the sum
    of the root walls; :meth:`attribute` buckets that partition —
    ``profile`` by span name, ``explain`` by nearest ``node``.
    """

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = spans
        self.by_id: Dict[int, Span] = {span.span_id: span for span in spans}
        self.children: Dict[int, List[Span]] = {}
        self.roots: List[Span] = []
        for span in spans:
            if span.parent_id is None or span.parent_id not in self.by_id:
                self.roots.append(span)
            else:
                self.children.setdefault(span.parent_id, []).append(span)
        self.total_wall = sum((span.wall for span in self.roots), 0.0)

    def ancestors(self, span_id: Optional[int]) -> Iterator[Span]:
        """Span ``span_id`` and its ancestors, innermost first (cycle-safe)."""
        seen = set()
        while span_id is not None and span_id not in seen:
            seen.add(span_id)
            span = self.by_id.get(span_id)
            if span is None:
                return
            yield span
            span_id = span.parent_id

    def nearest_attr(self, span_id: Optional[int], key: str) -> Optional[str]:
        """The non-empty string attr ``key`` of the innermost enclosing span."""
        for span in self.ancestors(span_id):
            value = span.attrs.get(key)
            if isinstance(value, str) and value:
                return value
        return None

    def attribute(self, key: Callable[[Span], Hashable]) -> Dict:
        """Self wall summed per bucket ``key(span)``, in first-seen order."""
        buckets: Dict = {}
        for span in self.spans:
            children = self.children.get(span.span_id, ())
            self_wall = max(0.0, span.wall - sum(c.wall for c in children))
            bucket = key(span)
            buckets[bucket] = buckets.get(bucket, 0.0) + self_wall
        return buckets


class _NullSpan:
    """The shared do-nothing span returned while recording is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


NULL_SPAN = _NullSpan()


class _LiveSpan:
    """An open span; created by :meth:`SpanRecorder.span`."""

    __slots__ = ("_recorder", "name", "attrs", "span_id", "parent_id",
                 "_t0", "_c0")

    def __init__(self, recorder: "SpanRecorder", name: str, attrs: Dict):
        self._recorder = recorder
        self.name = name
        self.attrs = _coerce_attrs(attrs)
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self._t0 = 0.0
        self._c0 = 0.0

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(_coerce_attrs(attrs))

    def __enter__(self) -> "_LiveSpan":
        recorder = self._recorder
        stack = recorder._stack()
        self.span_id = next(recorder._ids)
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self._t0 = time.monotonic()
        self._c0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        now = time.monotonic()
        cpu = time.process_time()
        recorder = self._recorder
        stack = recorder._stack()
        # Exception-safe closure: pop down to (and including) this span even
        # if an inner span leaked, so the stack never corrupts.
        while stack and stack[-1] != self.span_id:
            stack.pop()
        if stack:
            stack.pop()
        recorder._finish(
            Span(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                start=self._t0 - recorder.epoch,
                wall=now - self._t0,
                cpu=cpu - self._c0,
                attrs=self.attrs,
                status="error" if exc_type is not None else "ok",
                pid=recorder.pid,
            )
        )
        return False


class SpanRecorder:
    """One process's span stream, event stream and metrics registry."""

    def __init__(
        self,
        metrics=None,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        from repro.obs.metrics import MetricsRegistry

        self.epoch = time.monotonic()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans: List[Span] = []
        self.events: List[ObsEvent] = []
        self.max_spans = max_spans
        self.dropped = 0
        self.pid = os.getpid()
        #: Optional streaming sink (``on_span(span)`` / ``on_event(event)``)
        #: notified as records complete — the flight recorder's hook.  Sinks
        #: see records even past ``max_spans``: the cap protects memory, and
        #: a journaling sink is bounded on its own.
        self.sink = None
        self._ids = itertools.count(1)
        self._tls = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _finish(self, span: Span) -> None:
        if self.sink is not None:
            self.sink.on_span(span)
        if len(self.spans) >= self.max_spans:
            self._drop()
            return
        self.spans.append(span)

    def _drop(self, count: int = 1) -> None:
        """Account for records lost to the cap — never silently.

        Drops are tallied on the recorder *and* in its metrics registry
        (``obs.spans_dropped``), so a truncated stream is visible in every
        export surface: the JSONL header, the Prometheus dump, and the
        ``truncated`` flag consumers like ``explain``/``profile`` warn on.
        """
        if count <= 0:
            return
        self.dropped += count
        self.metrics.counter("obs.spans_dropped").inc(count)

    @property
    def truncated(self) -> bool:
        """True when the cap forced at least one span/event drop."""
        return self.dropped > 0

    # -- Recording -------------------------------------------------------------

    def span(self, name: str, **attrs):
        """Open a span; use as a context manager.

        The span nests under the innermost span open on the calling thread
        (threads have independent stacks; span *storage* is shared).
        """
        return _LiveSpan(self, name, attrs)

    def add_event(self, name: str, domain: str = "obs", **attrs) -> None:
        """Record an instant event at the current position in the stream."""
        stack = self._stack()
        event = ObsEvent(
            name=name,
            elapsed=time.monotonic() - self.epoch,
            attrs=_coerce_attrs(attrs),
            domain=domain,
            span_id=stack[-1] if stack else None,
        )
        if self.sink is not None:
            self.sink.on_event(event)
        if len(self.events) >= self.max_spans:
            self._drop()
            return
        self.events.append(event)

    @property
    def current_span_id(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    def record_span(
        self,
        name: str,
        *,
        wall: float,
        start: Optional[float] = None,
        parent_id: Optional[int] = None,
        status: str = "ok",
        cpu: float = 0.0,
        **attrs,
    ) -> int:
        """Record a span retroactively, without having held it open.

        The serving daemon uses this for phases whose start and end happen
        on different threads (queue wait: admission thread → dispatcher
        thread), where a context manager cannot straddle the boundary.
        ``start`` is seconds since the recorder's epoch; when omitted the
        span is back-dated ``wall`` seconds from now.  Returns the span id.
        """
        now_rel = time.monotonic() - self.epoch
        if start is None:
            start = max(0.0, now_rel - wall)
        span_id = next(self._ids)
        self._finish(
            Span(
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                start=start,
                wall=wall,
                cpu=cpu,
                attrs=_coerce_attrs(attrs),
                status=status,
                pid=self.pid,
            )
        )
        return span_id

    # -- Serialization and cross-process merge ----------------------------------

    def to_json(self) -> Dict:
        return {
            "format": "repro-spans/1",
            "pid": self.pid,
            "dropped": self.dropped,
            "truncated": self.truncated,
            "spans": [span.to_json() for span in self.spans],
            "events": [event.to_json() for event in self.events],
        }

    def merge_serialized(
        self,
        data: Optional[Dict],
        root_name: str = "job",
        attrs: Optional[Dict] = None,
        wall: Optional[float] = None,
        parent_id: Optional[int] = None,
    ) -> Optional[int]:
        """Graft a serialized child recorder under a synthetic root span.

        The child's spans keep their shape but get fresh ids (allocated in
        payload order, so merging the same payloads in the same order is
        deterministic) and a start offset placing them inside the root.  The
        root's start is back-dated by ``wall`` from *now* — the parent does
        not share a clock with the worker, so this is the best alignment
        available.  ``parent_id`` nests the synthetic root under an existing
        span (how the daemon attaches a worker tree to its request span)
        instead of making it a new top-level root.  Returns the new root
        span id (None for empty payloads).
        """
        if not data:
            return None
        child_spans = [Span.from_json(s) for s in data.get("spans", [])]
        child_events = [ObsEvent.from_json(e) for e in data.get("events", [])]
        now_rel = time.monotonic() - self.epoch
        if wall is None:
            wall = max(
                [s.start + s.wall for s in child_spans] + [0.0]
            )
        offset = max(0.0, now_rel - wall)
        root_id = next(self._ids)
        id_map: Dict[int, int] = {}
        for span in child_spans:  # first pass: allocate ids in payload order
            id_map[span.span_id] = next(self._ids)
        for span in child_spans:
            parent = span.parent_id
            self._finish(
                Span(
                    span_id=id_map[span.span_id],
                    parent_id=id_map.get(parent, root_id),
                    name=span.name,
                    start=span.start + offset,
                    wall=span.wall,
                    cpu=span.cpu,
                    attrs=span.attrs,
                    status=span.status,
                    pid=span.pid,
                )
            )
        kept = child_events[: max(0, self.max_spans - len(self.events))]
        for event in kept:
            self.events.append(
                ObsEvent(
                    name=event.name,
                    elapsed=event.elapsed + offset,
                    attrs=event.attrs,
                    domain=event.domain,
                    span_id=id_map.get(event.span_id, root_id),
                )
            )
        self._drop(
            len(child_events) - len(kept) + int(data.get("dropped", 0))
        )
        self._finish(
            Span(
                span_id=root_id,
                parent_id=parent_id,
                name=root_name,
                start=offset,
                wall=wall,
                cpu=sum(s.cpu for s in child_spans if s.parent_id is None),
                attrs=_coerce_attrs(attrs or {}),
                pid=data.get("pid", 0),
            )
        )
        return root_id
