"""Wire shapes of the ``/v1`` synthesis service API.

One place defines what a submission looks like and what states a served job
moves through, so the daemon, the HTTP layer and the tests all agree.
Everything is plain dicts/strings at the boundary — the service keeps the
repo's zero-dependency promise, so "schema" here means careful parsing
with explicit errors, not a validation library.

A submission is either:

- ``application/json``::

      {"problem": "<SyGuS-IF text>",        # required
       "name": "max2",                      # optional, for humans
       "solver": "dryadsynth",              # optional, server default
       "timeout": 5.0,                      # optional, server default/cap
       "client": "alice",                   # optional queue key, default
       "priority": 3,                       # optional, higher = sooner
       "weight": 2}                         # optional per-client WRR weight

- or raw SyGuS-IF text (any other content type); client/solver/priority
  then come from query parameters (``?client=...&priority=...``) or server
  defaults.

Job lifecycle: ``queued`` → ``dispatched`` → ``running`` → ``done``, with
two admission-time exits — ``done`` immediately on a cache hit, and
``shed`` when a full queue drops the lowest-priority entry to admit a
higher-priority one (the ``shed`` event names it in ``displaced_by``).
``done`` and ``shed`` are terminal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

# Served-job states.
QUEUED = "queued"
DISPATCHED = "dispatched"
RUNNING = "running"
DONE = "done"
SHED = "shed"

TERMINAL_STATES = (DONE, SHED)

#: Bounds a submission may ask for; anything outside is a 400.
MAX_PRIORITY = 1_000_000
MAX_WEIGHT = 100
MAX_TIMEOUT = 3600.0


class BadRequest(ValueError):
    """A submission the server refuses to admit (HTTP 400)."""


@dataclass
class SubmitRequest:
    """One parsed, validated submission."""

    problem_text: str
    name: str = "job"
    solver: Optional[str] = None
    timeout: Optional[float] = None
    client: str = "default"
    priority: int = 0
    weight: int = 1
    #: Free-form labels echoed back in the job view (tenant ids, batch ids).
    labels: Dict[str, str] = field(default_factory=dict)
    #: W3C ``traceparent`` the caller wants this request to continue; taken
    #: from the HTTP header, a JSON field or a query parameter (that order).
    #: Malformed values never reject a submission — the daemon mints a
    #: fresh trace instead (:mod:`repro.obs.trace`).
    traceparent: Optional[str] = None


def parse_submission(
    body: bytes,
    content_type: str = "",
    query: Optional[Dict[str, str]] = None,
    traceparent: Optional[str] = None,
) -> SubmitRequest:
    """Parse a request body into a :class:`SubmitRequest`.

    JSON bodies carry every field inline; raw SyGuS-IF text takes the
    queue-shaping fields from ``query``.  ``traceparent`` is the HTTP
    header value (if any); an inline ``traceparent`` field in the body or
    query wins over it.  Raises :class:`BadRequest` with a human-readable
    message on anything malformed.
    """
    import json

    query = query or {}
    if not body or not body.strip():
        raise BadRequest("empty request body")
    if "application/json" in (content_type or ""):
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"malformed JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise BadRequest("JSON body must be an object")
        problem = payload.get("problem")
        if not isinstance(problem, str) or not problem.strip():
            raise BadRequest('missing required string field "problem"')
        fields = dict(payload)
    else:
        try:
            problem = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BadRequest(f"body is not UTF-8 text: {exc}") from exc
        if not problem.strip():
            raise BadRequest("empty problem text")
        fields = dict(query)
    request = SubmitRequest(problem_text=problem)
    request.name = _string_field(fields, "name", request.name)
    solver = _string_field(fields, "solver", "")
    request.solver = solver or None
    request.client = _string_field(fields, "client", request.client) or "default"
    request.priority = _int_field(fields, "priority", 0, -MAX_PRIORITY,
                                  MAX_PRIORITY)
    request.weight = _int_field(fields, "weight", 1, 1, MAX_WEIGHT)
    timeout = fields.get("timeout")
    if timeout is not None and timeout != "":
        try:
            request.timeout = float(timeout)
        except (TypeError, ValueError) as exc:
            raise BadRequest(f'field "timeout" must be a number') from exc
        if not 0 < request.timeout <= MAX_TIMEOUT:
            raise BadRequest(
                f'field "timeout" must be in (0, {MAX_TIMEOUT:g}]'
            )
    labels = fields.get("labels")
    if labels is not None:
        if not isinstance(labels, dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in labels.items()
        ):
            raise BadRequest('field "labels" must map strings to strings')
        request.labels = dict(labels)
    inline_traceparent = _string_field(fields, "traceparent", "")
    request.traceparent = inline_traceparent or traceparent or None
    return request


def _string_field(fields: Dict, key: str, default: str) -> str:
    value = fields.get(key, default)
    if value is None:
        return default
    if not isinstance(value, str):
        raise BadRequest(f'field "{key}" must be a string')
    return value.strip() or default


def _int_field(fields: Dict, key: str, default: int, lo: int, hi: int) -> int:
    value = fields.get(key, default)
    if value is None or value == "":
        return default
    try:
        value = int(value)
    except (TypeError, ValueError) as exc:
        raise BadRequest(f'field "{key}" must be an integer') from exc
    if not lo <= value <= hi:
        raise BadRequest(f'field "{key}" must be in [{lo}, {hi}]')
    return value
