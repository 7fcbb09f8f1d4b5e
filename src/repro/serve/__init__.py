"""`repro.serve` — synthesis as a service.

The long-lived daemon behind ``dryadsynth serve``: SyGuS problems arrive
over HTTP (JSON or raw SyGuS-IF text), pass cache-first admission against
the fingerprint :class:`~repro.service.cache.ResultCache`, queue per client
under a weighted-round-robin fair scheduler with priorities, and execute on
one warm :class:`~repro.service.pool.WorkerPool` that lives as long as the
daemon.  Backpressure is explicit (HTTP 429 + ``Retry-After`` when the
bounded queue is full, load-shedding of the lowest-priority queued job when
a higher-priority one arrives), and ``SIGTERM`` triggers a graceful drain:
stop admitting, finish every accepted job, persist results, exit.

Modules:

- :mod:`repro.serve.protocol` — request/ticket/record shapes shared by the
  daemon and the HTTP layer;
- :mod:`repro.serve.queues` — per-client priority queues under the
  weighted-round-robin :class:`~repro.serve.queues.FairScheduler`;
- :mod:`repro.serve.daemon` — :class:`~repro.serve.daemon.SynthesisDaemon`,
  the admission/dispatch/drain state machine;
- :mod:`repro.serve.http` — the ``/v1`` API mounted on the telemetry
  server (one listener also serves ``/metrics``, ``/jobs``, ``/healthz``).

See docs/SERVICE.md ("Running the daemon") for endpoints and semantics.
"""

from repro.serve.daemon import ServeSettings, SynthesisDaemon
from repro.serve.http import build_server
from repro.serve.queues import FairScheduler

__all__ = [
    "FairScheduler",
    "ServeSettings",
    "SynthesisDaemon",
    "build_server",
]
