"""Persistent on-disk cache of :class:`~repro.service.jobs.JobResult` records.

Layout: one JSON file per fingerprint, sharded by the first two hex chars
(``<root>/ab/abcdef...json``) so a campaign over thousands of problems never
funnels through one directory or one giant index file (the weakness of the
ad-hoc ``bench_results.json`` cache this generalizes).  Writes are atomic
(temp file + rename), so a killed campaign never leaves a torn entry.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional

from repro import obs
from repro.service.jobs import TERMINAL_STATUSES, JobResult

#: Entries carry a schema version; mismatched entries read as misses.
CACHE_SCHEMA = 1

DEFAULT_CACHE_ENV = "REPRO_SERVICE_CACHE"


def default_cache_dir() -> str:
    path = os.environ.get(DEFAULT_CACHE_ENV)
    if path:
        return path
    xdg = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.path.join(xdg, "repro", "results")


class ResultCache:
    """Fingerprint-keyed job result store with hit/miss accounting.

    The counters live both as plain attributes (``hits``/``misses``,
    printed by the ``dryadsynth batch`` summary) and as ``cache.*`` metrics
    on the ambient :func:`repro.obs.metrics` registry, so fleet-wide dumps
    show cache effectiveness without extra plumbing.
    """

    def __init__(self, root: Optional[str] = None):
        self.root = os.path.abspath(root or default_cache_dir())
        self.hits = 0
        self.misses = 0

    def _path(self, fingerprint: str) -> str:
        return os.path.join(self.root, fingerprint[:2], fingerprint + ".json")

    def _miss(self) -> Optional[JobResult]:
        self.misses += 1
        obs.metrics().counter("cache.misses").inc()
        return None

    def get(self, fingerprint: str) -> Optional[JobResult]:
        path = self._path(fingerprint)
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return self._miss()
        if data.get("schema") != CACHE_SCHEMA:
            return self._miss()
        try:
            result = JobResult.from_json(data["result"])
        except (KeyError, TypeError):
            return self._miss()
        self.hits += 1
        obs.metrics().counter("cache.hits").inc()
        return result

    def put(self, fingerprint: str, result: JobResult) -> None:
        """Store a terminal result (crashed/cancelled runs are not cacheable)."""
        if result.status not in TERMINAL_STATUSES:
            return
        result.fingerprint = fingerprint
        path = self._path(fingerprint)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {"schema": CACHE_SCHEMA, "result": result.to_json()}
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
