"""Search forensics: semantic events keyed by stable subproblem-node IDs.

The span layer (:mod:`repro.obs.spans`) answers *where the time went*; this
module answers *what the search did*: which subproblem-graph nodes were
created and by which division strategy, which Figure 7/8 deduction rules
were attempted and which fired, where CEGIS counterexamples appeared, and —
for unsolved runs — where the frontier got stuck.

Forensics records are ordinary instant events on the ambient span stream
(domain ``"forensics"``), so they ride everything the span stream already
flows through for free: ``JobResult.telemetry`` payloads, ``--spans-out``
JSONL dumps, and the crash flight recorder.  ``dryadsynth explain``
(:mod:`repro.obs.explain`) is the consumer.

Event inventory (all attrs are flat JSON scalars):

``graph.node``
    A subproblem-graph node was created.  ``node`` (stable ID), ``fun``
    (synth-fun name), ``parent`` (creating parent's node ID, absent for the
    source), ``strategy`` (division strategy of the creating edge),
    ``depth``.
``graph.share``
    An existing node gained another parent (Figure 3's shared structure).
``graph.solve``
    A node was solved; ``how`` is ``direct`` (own search/deduction) or
    ``propagated`` (combined from children).
``divide.choice``
    Algorithm 1 committed to a division; ``strategy``, ``child``,
    ``created``.
``divide.reject``
    A division was abandoned; ``reason`` says why (``trivial-a-solution``,
    ``not-in-grammar``, ``no-resolution``, ...).
``deduct.rule``
    One Figure 7/8 rule application: ``rule``, ``outcome``
    (``fired``/``failed``/``attempt``), optional ``delta`` (spec-size
    change; negative means the rewrite shrank the spec) and ``count``
    (number of merges for the merging rules).
``cegis.iter`` / ``cegis.cex``
    One CEGIS iteration / a fresh counterexample (``cex`` is the rendered
    assignment), with ``iteration`` and ``height`` where known.

Like every ``repro.obs`` surface, emission is a no-op until a recorder is
installed; the disabled cost is one attribute load and a ``None`` check.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Iterator, Optional

from repro import obs

#: Event-stream domain for forensics records.
DOMAIN = "forensics"

# Event names (importable so emitters and consumers cannot drift apart).
GRAPH_NODE = "graph.node"
GRAPH_SHARE = "graph.share"
GRAPH_SOLVE = "graph.solve"
DIVIDE_CHOICE = "divide.choice"
DIVIDE_REJECT = "divide.reject"
DEDUCT_RULE = "deduct.rule"
CEGIS_ITER = "cegis.iter"
CEGIS_CEX = "cegis.cex"


def enabled() -> bool:
    """True when forensics events are being recorded."""
    return obs.active() is not None


def iter_events(events: Iterable, *names: str) -> Iterator:
    """Yield the forensics-domain events of a stream, oldest first.

    ``names`` optionally restricts the yield to specific event names.  Every
    consumer of the event stream (``explain``, ``diff``) needs the same
    domain filter; sharing it here keeps them from
    drifting on what counts as a forensics record.
    """
    wanted = frozenset(names) if names else None
    for event in events:
        if event.domain != DOMAIN:
            continue
        if wanted is None or event.name in wanted:
            yield event


def emit(event: str, **attrs) -> None:
    """Record one forensics event on the ambient stream (no-op when off)."""
    recorder = obs.active()
    if recorder is not None:
        recorder.add_event(event, domain=DOMAIN, **attrs)


def render_example(example: Optional[Dict]) -> str:
    """One-line, deterministic rendering of a counterexample assignment."""
    if not example:
        return "{}"
    return json.dumps(
        {str(k): example[k] for k in sorted(example)}, separators=(",", ":")
    )
