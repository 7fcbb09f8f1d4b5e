"""Job and result types for the synthesis service, plus worker-side execution.

A :class:`SynthesisJob` is fully picklable: the problem travels as SyGuS-IF
text, the solver as a registry name and the budget as a number of seconds.
The worker parses the text, runs the named solver and answers with a
:class:`JobResult` whose solution (if any) is again serialized text —
:class:`~repro.lang.ast.Term` values never cross the process boundary.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.obs import trace as obs_trace

# Job outcome statuses (plain strings so JSON round-trips are trivial).
SOLVED = "solved"
UNSOLVED = "unsolved"
TIMEOUT = "timeout"
CRASHED = "crashed"
CANCELLED = "cancelled"
#: The parent killed the worker for exceeding the pool's soft RSS budget
#: (``WorkerPool(max_rss_mb=...)``).  Deliberately *not* terminal for the
#: result cache: a different budget could complete the same fingerprint.
OOM_BUDGET = "oom_budget"

TERMINAL_STATUSES = (SOLVED, UNSOLVED, TIMEOUT)

#: Grace multiplier/offset turning a job's soft (in-worker) timeout into the
#: hard deadline the parent enforces with SIGTERM.
HARD_TIMEOUT_FACTOR = 1.5
HARD_TIMEOUT_MARGIN = 5.0


@dataclass
class SynthesisJob:
    """One solver run over one problem, ready to ship to a worker process."""

    problem_text: str
    solver: str = "dryadsynth"
    #: Soft wall-clock budget enforced inside the worker (None = unlimited).
    timeout: Optional[float] = None
    #: Hard deadline enforced by the parent (terminate + retry).  Defaults to
    #: ``timeout * HARD_TIMEOUT_FACTOR + HARD_TIMEOUT_MARGIN``.
    hard_timeout: Optional[float] = None
    job_id: str = ""
    name: str = "job"
    #: Record spans/metrics inside the worker and ship them back in the
    #: result's ``telemetry`` payload (see :mod:`repro.obs`).  Off by
    #: default; does not affect the job's fingerprint.
    telemetry: bool = False
    #: Flight-recorder journal path (see :mod:`repro.obs.flight`): the
    #: worker mirrors its recent telemetry into this crash-resistant file so
    #: the parent can recover a post-mortem if it has to kill the worker.
    #: Assigned per attempt by the pool when it has a ``flight_dir``; does
    #: not affect the fingerprint.
    flight_journal: Optional[str] = None
    #: Fingerprint-neutral worker plumbing: the daemon's request trace
    #: context travels here (:func:`repro.obs.trace.inject`).
    params: Dict[str, str] = field(default_factory=dict)

    @property
    def effective_hard_timeout(self) -> Optional[float]:
        if self.hard_timeout is not None:
            return self.hard_timeout
        if self.timeout is None:
            return None
        return self.timeout * HARD_TIMEOUT_FACTOR + HARD_TIMEOUT_MARGIN

    def fingerprint(self) -> str:
        from repro.service.fingerprint import problem_fingerprint

        return problem_fingerprint(self.problem_text, self.solver, self.timeout)

    @staticmethod
    def from_problem(problem, solver: str = "dryadsynth", **kwargs) -> "SynthesisJob":
        """Build a job from an in-memory problem (single- or multi-function)."""
        from repro.sygus.multi import MultiSygusProblem
        from repro.sygus.serializer import multi_problem_to_sygus, problem_to_sygus

        if isinstance(problem, MultiSygusProblem):
            text = multi_problem_to_sygus(problem)
        else:
            text = problem_to_sygus(problem)
        kwargs.setdefault("name", problem.name)
        return SynthesisJob(problem_text=text, solver=solver, **kwargs)

    @staticmethod
    def from_file(path: str, solver: str = "dryadsynth", **kwargs) -> "SynthesisJob":
        import os

        with open(path) as handle:
            text = handle.read()
        name = os.path.basename(path)
        if name.endswith(".sl"):
            name = name[: -len(".sl")]
        kwargs.setdefault("name", name)
        return SynthesisJob(problem_text=text, solver=solver, **kwargs)


@dataclass
class JobResult:
    """Typed outcome of one job (the JSONL record of ``dryadsynth batch``)."""

    job_id: str
    name: str
    solver: str
    status: str
    solution_text: Optional[str] = None
    solution_size: Optional[int] = None
    solution_height: Optional[int] = None
    wall_time: float = 0.0
    #: Seconds the job spent waiting for a worker (submission to the
    #: assignment that produced this result); lets batch/race latency be
    #: decomposed into wait vs. solve.
    queue_wait: float = 0.0
    stats: Dict = field(default_factory=dict)
    attempts: int = 1
    failures: List[str] = field(default_factory=list)
    from_cache: bool = False
    error: Optional[str] = None
    fingerprint: str = ""
    #: Worker-side telemetry (``{"spans": ..., "metrics": ...}``) when the
    #: job asked for it; the parent merges this into its own recorder.
    telemetry: Optional[Dict] = None
    #: Flight-recorder recovery (:func:`repro.obs.flight.read_postmortem`):
    #: what the worker was doing when it crashed or was terminated.  Only
    #: populated for jobs that had a failed attempt with a journal.
    postmortem: Optional[Dict] = None
    #: Worker-side resource accounting (:func:`repro.obs.rusage.delta`):
    #: ``peak_rss_bytes`` plus per-job ``user_cpu``/``sys_cpu`` seconds.
    rusage: Optional[Dict] = None

    @property
    def solved(self) -> bool:
        return self.status == SOLVED

    def to_json(self) -> Dict:
        return asdict(self)

    @staticmethod
    def from_json(data: Dict) -> "JobResult":
        return JobResult(**data)


# ---------------------------------------------------------------------------
# Worker-side execution
# ---------------------------------------------------------------------------


class FixedHeightJobSolver:
    """Run Algorithm 2 at one fixed height (the process-parallel height racer)."""

    def __init__(self, height: int, timeout: Optional[float] = None):
        self.height = height
        self.timeout = timeout
        self.name = f"fixed-height@{height}"

    def synthesize(self, problem):
        from repro.smt.solver import SolverBudgetExceeded
        from repro.sygus.problem import Solution
        from repro.synth.cegis import CegisTimeout
        from repro.synth.encoding import EncodingUnsupported
        from repro.synth.fixed_height import fixed_height
        from repro.synth.result import SynthesisOutcome, SynthesisStats

        stats = SynthesisStats()
        start = time.monotonic()
        deadline = start + self.timeout if self.timeout is not None else None
        stats.heights_tried += 1
        stats.max_height_reached = self.height
        try:
            body = fixed_height(
                problem,
                self.height,
                examples=[],
                deadline=deadline,
                stats=stats,
                prefix=f"svc{self.height}",
            )
        except (CegisTimeout, SolverBudgetExceeded):
            return SynthesisOutcome(None, stats, timed_out=True)
        except EncodingUnsupported:
            return SynthesisOutcome(None, stats)
        if body is None:
            return SynthesisOutcome(None, stats)
        elapsed = time.monotonic() - start
        return SynthesisOutcome(Solution(problem, body, self.name, elapsed), stats)


def build_solver(name: str, problem, timeout: Optional[float] = None):
    """The solver to run on a parsed ``problem``.

    A multi-function problem always gets the multi-function synthesizer,
    whatever ``name`` says; otherwise ``name`` is a service name (the bench
    registry plus ``fixed-height@H``).
    """
    from repro.sygus.multi import MultiSygusProblem

    if isinstance(problem, MultiSygusProblem):
        from repro.synth.multi import MultiFunctionSynthesizer

        return MultiFunctionSynthesizer(timeout)
    if name.startswith("fixed-height@"):
        return FixedHeightJobSolver(int(name.split("@", 1)[1]), timeout)
    from repro.bench.runner import make_solver

    return make_solver(name, timeout)


def parse_solution_text(problem, text: str):
    """Parse a ``(define-fun ...)`` back into a body :class:`Term`.

    Interpreted grammar operators are kept as applications (not inlined) so
    the reconstructed body prints the same way the worker's solution did.
    """
    from repro.lang.sexpr import parse_sexpr
    from repro.sygus.parser import SygusParseError, _Context

    sexpr = parse_sexpr(text)
    if not (isinstance(sexpr, list) and len(sexpr) == 5 and sexpr[0] == "define-fun"):
        raise SygusParseError(f"not a define-fun: {text[:80]!r}")
    ctx = _Context()
    ctx.defined = dict(problem.synth_fun.grammar.interpreted)
    scope = {p.payload: p for p in problem.synth_fun.params}
    return ctx.parse_term(sexpr[4], scope, inline_defined=False)


def _debug_solver_result(job: SynthesisJob, start: float) -> Optional[JobResult]:
    """Built-in ``debug-*`` solvers exercising the pool's failure paths.

    These exist so crash/hang/retry handling can be tested (and demoed)
    deterministically without a real solver:

    - ``debug-solve[@secs]`` — optionally sleep, then "solve";
    - ``debug-sleep@secs`` — sleep, then report unsolved;
    - ``debug-hang`` — never return (parent must enforce the deadline);
    - ``debug-raise`` — raise inside the worker (in-process crash);
    - ``debug-exit[@code]`` — ``os._exit`` (hard crash, as if OOM-killed);
    - ``debug-crash-once@path`` — hard-crash on the first attempt (marker
      file absent), succeed on the retry;
    - ``debug-alloc@mb[:secs]`` — touch ``mb`` MiB of resident memory and
      hold it for ``secs`` (default 15s) — the stub that exercises the
      pool's ``max_rss_mb`` budget enforcement end to end.
    """
    name = job.solver
    if not name.startswith("debug-"):
        return None
    head, _, arg = name.partition("@")
    if head == "debug-solve":
        if arg:
            time.sleep(float(arg))
        return JobResult(
            job.job_id,
            job.name,
            job.solver,
            SOLVED,
            solution_text="(define-fun f () Int 0)",
            solution_size=1,
            solution_height=0,
            wall_time=time.monotonic() - start,
        )
    if head == "debug-sleep":
        time.sleep(float(arg))
        return JobResult(
            job.job_id, job.name, job.solver, UNSOLVED,
            wall_time=time.monotonic() - start,
        )
    if head == "debug-hang":
        while True:
            time.sleep(60.0)
    if head == "debug-raise":
        raise RuntimeError("debug-raise: simulated in-worker failure")
    if head == "debug-exit":
        import os

        os._exit(int(arg) if arg else 13)
    if head == "debug-crash-once":
        import os

        if not os.path.exists(arg):
            with open(arg, "w") as handle:
                handle.write("attempt 1\n")
            os._exit(13)
        return JobResult(
            job.job_id, job.name, job.solver, UNSOLVED,
            wall_time=time.monotonic() - start,
        )
    if head == "debug-alloc":
        from repro import obs

        mb_text, _, secs_text = arg.partition(":")
        mb = int(mb_text)
        hold = float(secs_text) if secs_text else 15.0
        # Name a frontier node before ballooning, so an over-budget kill's
        # postmortem can say what the "search" was touching (the same
        # forensics record real solvers journal).
        obs.event("graph.node", domain="forensics",
                  node=f"alloc{mb:08x}", fun="debug_alloc", depth=0)
        # bytearray zero-fills, so every page is touched and resident.
        ballast = bytearray(mb * 1024 * 1024)
        deadline = time.monotonic() + hold
        while time.monotonic() < deadline:
            time.sleep(0.05)
        del ballast
        return JobResult(
            job.job_id, job.name, job.solver, UNSOLVED,
            wall_time=time.monotonic() - start,
        )
    raise ValueError(f"unknown debug solver {name!r}")


def execute_job(job: SynthesisJob) -> JobResult:
    """Run one job to completion in the current process.

    Never raises: any exception is folded into a ``crashed`` result so a
    worker survives bad jobs (hard crashes — ``os._exit``, OOM kills — are
    detected by the parent instead).  When the pool assigned a
    ``flight_journal``, a :class:`~repro.obs.flight.FlightRecorder` mirrors
    lifecycle notes and completed spans to disk *before* the solver runs,
    so even a worker SIGKILLed mid-job leaves a recoverable journal.
    """
    start = time.monotonic()
    flight = _open_flight(job)
    try:
        result = _execute_recorded(job, start, flight)
    except Exception as exc:  # noqa: BLE001 - worker survival boundary
        result = JobResult(
            job.job_id,
            job.name,
            job.solver,
            CRASHED,
            wall_time=time.monotonic() - start,
            error=f"{type(exc).__name__}: {exc}",
            failures=[traceback.format_exc(limit=8)],
        )
    if flight is not None:
        flight.note("job.end", status=result.status,
                    wall=round(result.wall_time, 4))
        flight.close()
    return result


def _open_flight(job: SynthesisJob):
    """Open the job's flight journal (best-effort; never blocks the job)."""
    if not job.flight_journal:
        return None
    try:
        from repro.obs.flight import FlightRecorder

        ctx = obs_trace.extract(job.params)
        meta = {"job_id": job.job_id, "name": job.name,
                "solver": job.solver}
        if ctx is not None:
            # The crash journal must be joinable against the request trace
            # even when the worker dies before shipping any telemetry.
            meta["trace_id"] = ctx.trace_id
        flight = FlightRecorder(job.flight_journal, meta=meta)
        flight.note("job.start", timeout=job.timeout or 0.0)
        return flight
    except OSError:
        return None


def _execute_recorded(job: SynthesisJob, start: float, flight) -> JobResult:
    """Dispatch to debug/real execution, recording telemetry when asked.

    A flight recorder forces an in-worker span recorder even when the job
    did not request shipped telemetry: the journal needs the span stream,
    but the (potentially large) payload only rides back on
    ``JobResult.telemetry`` when ``job.telemetry`` is set.

    With a recorder installed, execution runs under a ``worker.request``
    root span carrying the distributed-trace ids the daemon injected into
    ``job.params`` — debug solvers included, so traced service tests don't
    need a real solve.  The daemon re-roots this tree under its own
    ``serve.request`` span on completion.  Every path records per-job
    rusage (:mod:`repro.obs.rusage`) into ``result.rusage``.
    """
    from repro.obs import rusage as _rusage

    usage_before = _rusage.snapshot()
    if not (job.telemetry or flight is not None):
        debug = _debug_solver_result(job, start)
        result = debug if debug is not None else _execute_real_job(job, start)
        result.rusage = _rusage.delta(usage_before)
        return result
    from repro import obs
    from repro.obs.export import telemetry_payload

    trace_attrs = obs_trace.worker_span_attrs(job.params)
    with obs.recording() as recorder:
        if flight is not None:
            recorder.sink = flight
        with recorder.span("worker.request", job_id=job.job_id or None,
                           problem=job.name, solver=job.solver,
                           **trace_attrs) as root:
            debug = _debug_solver_result(job, start)
            result = (debug if debug is not None
                      else _execute_real_job(job, start))
            root.set(job_status=result.status)
        usage = _rusage.delta(usage_before)
        result.rusage = usage
        if usage["peak_rss_bytes"]:
            recorder.metrics.gauge("process.peak_rss_bytes").set_max(
                float(usage["peak_rss_bytes"])
            )
    if job.telemetry:
        result.telemetry = telemetry_payload(recorder, rusage=usage)
    return result


def _execute_real_job(job: SynthesisJob, start: float) -> JobResult:
    from repro.sygus.parser import parse_sygus_text

    problem = parse_sygus_text(job.problem_text, name=job.name)
    outcome = build_solver(job.solver, problem, job.timeout).synthesize(problem)
    elapsed = time.monotonic() - start
    result = JobResult(
        job.job_id,
        job.name,
        job.solver,
        SOLVED if outcome.solution is not None else (
            TIMEOUT if outcome.timed_out else UNSOLVED
        ),
        wall_time=elapsed,
        stats=asdict(outcome.stats),
    )
    if outcome.solution is not None:
        result.solution_text = outcome.solution.define_fun()
        result.solution_size = outcome.solution.size
        result.solution_height = outcome.solution.height
    return result
