"""Crash flight recorder: a journaled ring buffer of recent telemetry.

A worker that is SIGKILLed — by the pool enforcing a hard deadline, by the
kernel's OOM killer — loses its in-memory :class:`~repro.obs.spans.SpanRecorder`
and everything it would have shipped back in ``JobResult.telemetry``.  The
:class:`FlightRecorder` exists for exactly that moment: it mirrors the most
recent spans/events/notes into a bounded in-memory ring *and* an on-disk
journal, written one record per line and flushed per record, so the parent
can recover a post-mortem from the file the dead worker left behind.

The journal is a ``repro-spans/1`` dump (:mod:`repro.obs.export`): its
header adds the recorder's ``meta`` and ``capacity``, its ``span`` and
``event`` records are the ``--spans-out`` records, and the two
journal-only kinds — lifecycle ``note`` records and the parent's trailing
``kill`` record — are skipped by span readers.  ``dryadsynth explain``,
``profile`` and ``--trace-chrome`` therefore read a dead worker's journal
like any span dump.

Crash-resistance contract:

- every record is appended as one line and flushed to the OS immediately —
  a SIGKILL can tear at most the final line (the tolerant readers drop it);
- the journal is bounded: once appends exceed ``2 × capacity`` the file is
  *rotated atomically* (ring contents written to a temp file, fsynced,
  ``os.replace``d over the journal), so a runaway worker cannot fill the
  disk and a reader never observes a half-rotated file.

The parent recovers with :func:`read_postmortem` (attached to
``JobResult.postmortem`` by the pool) and operators render journals with
``dryadsynth postmortem <journal>``.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Dict, List, Optional

from repro.obs.explain import build_explain
from repro.obs.export import SPANS_FORMAT, scan_lines
from repro.obs.spans import ObsEvent, Span

#: Ring capacity: how many recent records survive a crash.
DEFAULT_CAPACITY = 256


class FlightRecorder:
    """Journal the most recent telemetry records crash-resistantly.

    Implements the :class:`~repro.obs.spans.SpanRecorder` sink protocol
    (:meth:`on_span` / :meth:`on_event`), so attaching one to a recorder
    mirrors the span stream into the journal as spans complete.  Plain
    :meth:`note` records mark lifecycle points (job start/end) that exist
    even when no span ever completes — a worker killed inside its first
    span still leaves a readable journal.
    """

    def __init__(
        self,
        path: str,
        capacity: int = DEFAULT_CAPACITY,
        meta: Optional[Dict] = None,
    ) -> None:
        self.path = path
        self.capacity = max(1, capacity)
        self._ring: deque = deque(maxlen=self.capacity)
        self._appended = 0
        self._closed = False
        self._header = {
            "format": SPANS_FORMAT,
            "pid": os.getpid(),
            "capacity": self.capacity,
            "created": round(time.time(), 3),
        }
        if meta:
            self._header["meta"] = dict(meta)
        self._handle = open(path, "w")
        self._append(self._header, to_ring=False)

    # -- Record kinds ----------------------------------------------------------

    def note(self, name: str, **attrs) -> None:
        """A lifecycle marker (``job.start``, ``job.end``, ...)."""
        self._record({"note": {"name": name, "ts": round(time.time(), 3),
                               "attrs": attrs}})

    def on_span(self, span) -> None:
        self._record({"span": span.to_json()})

    def on_event(self, event) -> None:
        self._record({"event": event.to_json()})

    # -- Journal mechanics -----------------------------------------------------

    def _record(self, record: Dict) -> None:
        if self._closed:
            return
        self._append(record)
        if self._appended > 2 * self.capacity:
            self._rotate()

    def _append(self, record: Dict, to_ring: bool = True) -> None:
        if to_ring:
            self._ring.append(record)
            self._appended += 1
        try:
            self._handle.write(json.dumps(record) + "\n")
            self._handle.flush()
        except (OSError, ValueError):
            # A failing journal must never take the job down with it.
            self._closed = True

    def _rotate(self) -> None:
        """Rewrite the journal as header + ring, atomically."""
        tmp = self.path + ".rotate"
        try:
            with open(tmp, "w") as handle:
                handle.write(json.dumps(self._header) + "\n")
                for record in self._ring:
                    handle.write(json.dumps(record) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            self._handle.close()
            os.replace(tmp, self.path)
            self._handle = open(self.path, "a")
            self._appended = len(self._ring)
        except OSError:
            self._closed = True
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def close(self) -> None:
        if not self._closed:
            try:
                self._handle.close()
            except OSError:
                pass
        self._closed = True


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


def append_kill_record(path: str, **info) -> None:
    """Append a parent-authored ``{"kill": ...}`` record to a dead journal.

    The worker is dead by the time its parent knows *why* (deadline overrun,
    RSS-budget kill, a signal of the worker's own making), so the cause is
    appended by the parent instead.  The record is newline-*prefixed*: the
    worker may have died mid-write, and gluing onto its torn half-line would
    corrupt both records.  Best-effort — a failing append never takes the
    scheduler down.
    """
    record = {"kill": {**info, "ts": round(time.time(), 3)}}
    try:
        with open(path, "a") as handle:
            handle.write("\n" + json.dumps(record) + "\n")
            handle.flush()
    except OSError:
        pass


def _frontier(spans: List[Dict], events: List[Dict]) -> Optional[Dict]:
    """The subproblem-graph node the worker touched last, plus context.

    The latest journaled span (by its end) or event carrying a ``node``
    attr names the frontier node, and ``via`` names that record.  What the
    search was doing there is the node's own ``explain`` row
    (:func:`~repro.obs.explain.build_explain`): ``fun``/``depth`` when its
    ``graph.node`` record survived the ring, and the last division
    strategy, deduction rule and counterexample attributed to the node.
    Returns ``None`` when no record names a node (forensics was off, or
    the ring rotated past it).
    """
    stamped = [(s.get("start", 0.0) + s.get("wall", 0.0), s) for s in spans]
    stamped += [(e.get("elapsed", 0.0), e) for e in events]
    touched = [(ts, r) for ts, r in stamped
               if (r.get("attrs") or {}).get("node")]
    if not touched:
        return None
    # Latest first; a tie goes to the later record, as in a stable sort.
    _, latest = max(reversed(touched), key=lambda item: item[0])
    frontier = {"node": latest["attrs"]["node"],
                "via": latest.get("name", "?")}
    report = build_explain([Span.from_json(s) for s in spans],
                           [ObsEvent.from_json(e) for e in events])
    row = report.nodes.get(frontier["node"])
    if row is None:
        return frontier
    if row.fun != "?":  # the node's graph.node record survived
        frontier.update(fun=row.fun, depth=row.depth)
    for key in ("last_strategy", "last_rule", "last_cex"):
        value = getattr(row, key)
        if value:
            frontier[key] = value
    return frontier


def read_postmortem(path: str, tail: int = 25) -> Optional[Dict]:
    """Build the ``JobResult.postmortem`` payload from a journal file.

    Returns ``None`` when the journal is missing or holds no records at all
    (not even a header) — there is nothing to report.  The payload is
    bounded: only the last ``tail`` spans/events ride along, plus every
    lifecycle note and a summary of what the worker was doing last.  A torn
    final line is flagged in ``"truncated"``; damaged *interior* lines are
    counted in ``"corrupt"`` rather than raised — a post-mortem salvages
    what it can, because the alternative is losing the whole journal to one
    torn byte.
    """
    try:
        records, torn, damaged = scan_lines(path)
    except OSError:
        return None
    header: Dict = {}
    notes: List[Dict] = []
    spans: List[Dict] = []
    events: List[Dict] = []
    kill: Optional[Dict] = None
    for record in records:
        if "note" in record:
            notes.append(record["note"])
        elif "span" in record:
            spans.append(record["span"])
        elif "event" in record:
            events.append(record["event"])
        elif "kill" in record:
            kill = record["kill"]
        elif "format" in record:
            header = record
    if not (header or notes or spans or events):
        return None
    # The journal is append-ordered; the later of the two stream tails (the
    # span on a tie) is what the worker touched last, else its last note.
    tails = [({"span": s}, s.get("start", 0.0) + s.get("wall", 0.0))
             for s in spans[-1:]]
    tails += [({"event": e}, e.get("elapsed", 0.0)) for e in events[-1:]]
    if tails:
        last_record = max(tails, key=lambda item: item[1])[0]
    else:
        last_record = {"note": notes[-1]} if notes else None
    return {
        "journal": path,
        "pid": header.get("pid"),
        "meta": header.get("meta", {}),
        "kill": kill,
        "notes": notes,
        "num_spans": len(spans),
        "num_events": len(events),
        "spans": spans[max(0, len(spans) - tail):],
        "events": events[max(0, len(events) - tail):],
        "truncated": torn,
        "corrupt": len(damaged),
        "last": last_record,
        "frontier": _frontier(spans, events),
    }


def render_postmortem(postmortem: Dict) -> str:
    """Human-readable report for ``dryadsynth postmortem``."""
    lines: List[str] = []
    meta = postmortem.get("meta") or {}
    title = meta.get("job_id") or meta.get("name") or postmortem.get("journal")
    lines.append(f"post-mortem: {title}")
    if meta:
        rendered = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        lines.append(f"  job: {rendered}")
    if postmortem.get("pid"):
        lines.append(f"  worker pid: {postmortem['pid']}")
    kill = postmortem.get("kill")
    if kill:
        cause = kill.get("cause", "crash")
        if cause == "deadline":
            headline = "hard deadline exceeded; parent terminated worker"
        elif cause == "oom_budget":
            headline = "RSS budget exceeded; parent terminated worker"
        else:
            headline = "worker died on its own"
        detail = []
        if kill.get("signal"):
            detail.append(f"signal={kill['signal']}")
        if kill.get("exitcode") is not None:
            detail.append(f"exitcode={kill['exitcode']}")
        if kill.get("last_rss_bytes"):
            rss_mb = kill["last_rss_bytes"] / (1024 * 1024)
            detail.append(f"last_rss={rss_mb:.1f}MB")
        lines.append(
            f"  killed ({cause}): {headline}"
            + (f" [{' '.join(detail)}]" if detail else "")
        )
        if kill.get("reason"):
            lines.append(f"    reason: {kill['reason']}")
    flags = []
    if postmortem.get("truncated"):
        flags.append("final line torn (writer died mid-write)")
    if postmortem.get("corrupt"):
        flags.append(f"{postmortem['corrupt']} corrupt interior line(s)")
    if flags:
        lines.append(f"  journal: {'; '.join(flags)}")
    lines.append(
        f"  recorded: {postmortem.get('num_spans', 0)} span(s), "
        f"{postmortem.get('num_events', 0)} event(s), "
        f"{len(postmortem.get('notes', []))} note(s)"
    )
    notes = postmortem.get("notes") or []
    if notes:
        lines.append("  lifecycle:")
        for note in notes:
            attrs = note.get("attrs") or {}
            rendered = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            lines.append(f"    {note.get('name', '?')} {rendered}".rstrip())
    spans = postmortem.get("spans") or []
    if spans:
        lines.append(f"  last {len(spans)} span(s):")
        for span in spans:
            attrs = span.get("attrs") or {}
            rendered = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            lines.append(
                f"    +{span.get('start', 0.0):8.3f}s "
                f"{span.get('name', '?'):<12s} "
                f"wall={span.get('wall', 0.0):.4f}s {rendered}".rstrip()
            )
    events = postmortem.get("events") or []
    if events:
        lines.append(f"  last {len(events)} event(s):")
        for event in events:
            attrs = event.get("attrs") or {}
            rendered = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            lines.append(
                f"    +{event.get('elapsed', 0.0):8.3f}s "
                f"{event.get('name', '?'):<12s} {rendered}".rstrip()
            )
    last = postmortem.get("last")
    if last:
        kind, payload = next(iter(last.items()))
        name = payload.get("name", "?")
        lines.append(f"  last activity: {kind} {name!r}")
    frontier = postmortem.get("frontier")
    if frontier:
        detail = [f"node {frontier['node']}"]
        if frontier.get("fun"):
            detail.append(f"fun={frontier['fun']}")
        if frontier.get("depth") is not None:
            detail.append(f"depth={frontier['depth']}")
        if frontier.get("via"):
            detail.append(f"via={frontier['via']}")
        if frontier.get("last_strategy"):
            detail.append(f"last_strategy={frontier['last_strategy']}")
        if frontier.get("last_rule"):
            detail.append(f"last_rule={frontier['last_rule']}")
        lines.append(f"  frontier: {' '.join(detail)}")
        if frontier.get("last_cex"):
            lines.append(f"    last counterexample: {frontier['last_cex']}")
    return "\n".join(lines)
