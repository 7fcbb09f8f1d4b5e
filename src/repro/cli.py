"""Command-line interface: ``dryadsynth [options] file.sl``.

Reads a SyGuS-IF problem, runs a solver from the portfolio (the cooperative
synthesizer by default) and prints the solution as a ``define-fun``, the way
the original DryadSynth binary behaves in the SyGuS competition harness.

``dryadsynth batch DIR`` runs a whole directory of ``.sl`` files through the
process-parallel job engine (:mod:`repro.service`) and emits one JSON record
per problem — the batch/service entry point.

``dryadsynth serve`` runs the long-lived synthesis daemon
(:mod:`repro.serve`): problems over HTTP, per-client fair queues with
priorities and backpressure, cache-first admission, graceful SIGTERM drain.

``dryadsynth profile spans.jsonl`` renders a per-phase time-attribution
report (plus the hottest SMT queries) from a span dump produced with
``--spans-out`` (see :mod:`repro.obs` and docs/OBSERVABILITY.md).

``dryadsynth flame spans.jsonl`` renders the sampled wall-clock stack
profile recorded with ``--sample`` — hottest frames, FlameGraph/speedscope
``.collapsed`` export, diff-vs-baseline (:mod:`repro.obs.sampler`).

``dryadsynth postmortem journal.flight.jsonl`` reconstructs what a killed
worker was doing from its flight-recorder journal (``batch --flight-dir``).

``dryadsynth explain`` renders the search forensics of a run — the
subproblem tree with per-node wall/SMT attribution, the deduction
rule-firing table, and (for unsolved runs) the failure frontier — from a
``--spans-out`` dump or by running a problem directly (:mod:`repro.obs.explain`).

``dryadsynth smt-replay`` re-executes a captured SMT query corpus
(``--smt-corpus``) on a fresh solver and reports status/model divergences
and timing percentiles (:mod:`repro.smt.capture`).

``dryadsynth diff runA.jsonl runB.jsonl`` compares two runs' span dumps:
per-node self-wall deltas aligned by stable node id, solved-set changes,
strategy drift and the rule-firing delta table (:mod:`repro.obs.diff`).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from typing import Optional

from repro.bench.runner import SOLVER_NAMES, make_solver
from repro.sygus.parser import parse_sygus_file


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dryadsynth",
        description=(
            "Cooperative SyGuS solver for the CLIA theory "
            "(reproduction of Huang et al., PLDI 2020)"
        ),
    )
    parser.add_argument("file", help="SyGuS-IF (.sl) problem file")
    parser.add_argument(
        "--solver",
        choices=SOLVER_NAMES,
        default="dryadsynth",
        help="which solver of the portfolio to run",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget (default: unlimited)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print solving statistics to stderr",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the run's explain report (subproblem tree, rule "
        "table; see `dryadsynth explain`) to stderr",
    )
    parser.add_argument(
        "--smt-corpus",
        metavar="DIR",
        default=None,
        help="capture every SMT query issued during the run into a replayable "
        "corpus in DIR (replay with `dryadsynth smt-replay DIR`)",
    )
    _add_telemetry_out_args(parser)
    return parser


def _add_telemetry_out_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spans-out",
        metavar="PATH",
        default=None,
        help="record telemetry spans and write them as JSONL to PATH "
        "(render with `dryadsynth profile PATH`)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="record metrics and write a Prometheus text dump to PATH",
    )
    parser.add_argument(
        "--log-json",
        metavar="PATH",
        default=None,
        help="emit structured JSON log lines (repro-log/1) to PATH, "
        "or to stderr with '-'",
    )
    parser.add_argument(
        "--trace-chrome",
        metavar="PATH",
        default=None,
        help="export the recorded span stream as a Chrome/Perfetto "
        "trace_event file (open in chrome://tracing or ui.perfetto.dev)",
    )


@contextlib.contextmanager
def _json_logging(args):
    """Attach the ``--log-json`` handler for the duration of a command."""
    target = getattr(args, "log_json", None)
    if not target:
        yield None
        return
    from repro.obs.log import configure_json_logging, remove_json_logging

    try:
        handler = configure_json_logging(target)
    except OSError as exc:
        print(f"warning: cannot open log target: {exc}", file=sys.stderr)
        yield None
        return
    try:
        yield handler
    finally:
        remove_json_logging(handler)


def _write_telemetry(recorder, args) -> None:
    """Flush a finished recorder to the requested ``--*-out`` files."""
    from repro.obs.export import write_metrics_text, write_spans_jsonl

    if args.spans_out:
        try:
            write_spans_jsonl(recorder, args.spans_out)
        except OSError as exc:
            print(f"warning: cannot write spans: {exc}", file=sys.stderr)
    if args.metrics_out:
        try:
            write_metrics_text(recorder.metrics, args.metrics_out)
        except OSError as exc:
            print(f"warning: cannot write metrics: {exc}", file=sys.stderr)
    if getattr(args, "trace_chrome", None):
        from repro.obs.chrome import write_trace_chrome

        try:
            write_trace_chrome(
                args.trace_chrome, recorder.spans, events=recorder.events,
                truncated=recorder.truncated,
            )
        except OSError as exc:
            print(f"warning: cannot write trace: {exc}", file=sys.stderr)
    if recorder.truncated:
        print(
            "warning: span stream truncated by the recorder cap; "
            "telemetry outputs are partial",
            file=sys.stderr,
        )


def _wants_recording(args) -> bool:
    return bool(
        args.spans_out
        or args.metrics_out
        or getattr(args, "trace_chrome", None)
    )


@contextlib.contextmanager
def _smt_capturing(args, problem_name: str):
    """Attach the ``--smt-corpus`` query capture for the run's duration."""
    directory = getattr(args, "smt_corpus", None)
    if not directory:
        yield None
        return
    from repro.smt.capture import capturing

    with capturing(directory, problem_name) as capture:
        yield capture


def main(argv: Optional[list] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    args = build_arg_parser().parse_args(argv)
    with _json_logging(args):
        return _single_main(args)


def _single_main(args) -> int:
    try:
        problem = parse_sygus_file(args.file)
    except (OSError, Exception) as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from repro.sygus.multi import MultiSygusProblem

    if isinstance(problem, MultiSygusProblem):
        return _run_multi(problem, args)
    solver = make_solver(args.solver, args.timeout)
    import os

    problem_name = os.path.splitext(os.path.basename(args.file))[0]
    start = time.monotonic()
    with _smt_capturing(args, problem_name):
        if _wants_recording(args) or args.trace:
            from repro import obs

            with obs.recording() as recorder:
                outcome = solver.synthesize(problem)
            _write_telemetry(recorder, args)
        else:
            outcome = solver.synthesize(problem)
    elapsed = time.monotonic() - start
    if args.trace:
        from repro.obs.explain import explain_text

        print(
            explain_text(
                recorder.spans, recorder.events, truncated=recorder.truncated
            ),
            file=sys.stderr,
        )
    if args.stats:
        print(
            f"; solver={args.solver} time={elapsed:.3f}s "
            f"timed_out={outcome.timed_out} stats={outcome.stats}",
            file=sys.stderr,
        )
    if outcome.solution is None:
        print("fail" if not outcome.timed_out else "timeout")
        return 1
    print(outcome.solution.define_fun())
    return 0


def _run_multi(problem, args) -> int:
    """Solve a multi-function problem (always via the multi synthesizer)."""
    from repro.synth.config import SynthConfig
    from repro.synth.multi import MultiFunctionSynthesizer

    synthesizer = MultiFunctionSynthesizer(SynthConfig(timeout=args.timeout))
    if _wants_recording(args):
        from repro import obs

        with obs.recording() as recorder:
            solution, stats = synthesizer.synthesize(problem)
        _write_telemetry(recorder, args)
    else:
        solution, stats = synthesizer.synthesize(problem)
    if args.stats:
        print(f"; stats={stats}", file=sys.stderr)
    if solution is None:
        print("fail")
        return 1
    for rendered in solution.define_funs():
        print(rendered)
    return 0


def build_batch_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dryadsynth batch",
        description=(
            "Run a directory (or list) of SyGuS-IF problems through the "
            "process-parallel synthesis job engine; one JSON record per "
            "problem is written as JSONL."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="+",
        help=".sl files and/or directories containing them",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="number of worker processes (default: 1)",
    )
    parser.add_argument(
        "--solver",
        default="dryadsynth",
        help="solver to run on every problem (default: dryadsynth); any "
        f"of {', '.join(SOLVER_NAMES)} or fixed-height@H",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="per-problem wall-clock budget (default: 10)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write JSONL results to PATH (default: stdout)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="persistent fingerprint-keyed result cache directory "
        "(default: $REPRO_SERVICE_CACHE or ~/.cache/repro/results)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache for this run",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="retries per crashed/hung job before giving up (default: 1)",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="record spans/metrics inside every worker and merge them into "
        "a fleet-wide view (implied by --spans-out/--metrics-out/"
        "--serve-telemetry)",
    )
    parser.add_argument(
        "--serve-telemetry",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /metrics, /healthz and /jobs over HTTP on "
        "127.0.0.1:PORT while the batch runs (0 picks a free port; "
        "implies --telemetry)",
    )
    parser.add_argument(
        "--flight-dir",
        default=None,
        metavar="DIR",
        help="give every attempt a crash-resistant flight-recorder journal "
        "in DIR; journals of killed/crashed workers are kept and recovered "
        "into the result's postmortem (render with `dryadsynth postmortem`)",
    )
    parser.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        metavar="MB",
        help="soft per-worker RSS budget: a worker over it is terminated "
        "and its job completes as oom_budget (with a postmortem when "
        "--flight-dir is set), never a pool crash",
    )
    parser.add_argument(
        "--sample",
        action="store_true",
        help="run a wall-clock stack sampler inside every worker and merge "
        "the profiles fleet-wide (render with `dryadsynth flame`; implies "
        "--telemetry)",
    )
    parser.add_argument(
        "--collapsed-out",
        metavar="PATH",
        default=None,
        help="write the merged sampled profile as FlameGraph/speedscope "
        "collapsed-stack text to PATH (implies --sample)",
    )
    _add_telemetry_out_args(parser)
    return parser


def _collect_sl_files(paths) -> list:
    import glob
    import os

    files = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(sorted(glob.glob(os.path.join(path, "*.sl"))))
        else:
            files.append(path)
    return files


def _batch_main(argv) -> int:
    from repro.service.cache import ResultCache
    from repro.service.jobs import CRASHED, SynthesisJob
    from repro.service.pool import WorkerPool

    args = build_batch_arg_parser().parse_args(argv)
    files = _collect_sl_files(args.paths)
    if not files:
        print("error: no .sl files found", file=sys.stderr)
        return 2
    serve = args.serve_telemetry is not None
    sample = bool(args.sample or args.collapsed_out)
    telemetry = bool(
        args.telemetry or args.spans_out or args.metrics_out or serve
        or sample
    )
    # Workers under the spawn start method re-attach logging from the job's
    # params; `-` is parent-only (worker stderr is not the terminal).
    params = {"log_json": args.log_json} if args.log_json else {}
    jobs = []
    for path in files:
        try:
            job = SynthesisJob.from_file(
                path,
                solver=args.solver,
                timeout=args.timeout,
                telemetry=telemetry,
                params=dict(params),
            )
            job.sample = sample
            jobs.append(job)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    cache = None if args.no_cache else ResultCache(args.cache)
    start = time.monotonic()

    def progress(result) -> None:
        print(
            f"; [{result.status:>9s}] {result.name}"
            f" ({result.wall_time:.2f}s"
            f"{', cached' if result.from_cache else ''})",
            file=sys.stderr,
        )

    pool = WorkerPool(
        workers=args.jobs,
        max_retries=args.retries,
        cache=cache,
        flight_dir=args.flight_dir,
        max_rss_mb=args.max_rss_mb,
    )
    with _json_logging(args):
        if telemetry:
            from repro import obs

            # The parent-side recorder is the merge target for every
            # worker's shipped span tree and metric snapshot (see
            # WorkerPool.complete) — and what /metrics scrapes serve.
            with obs.recording() as recorder:
                server = _start_telemetry_server(args, pool, recorder)
                try:
                    with pool:
                        results = pool.run(jobs, progress=progress)
                finally:
                    if server is not None:
                        server.stop()
            _write_telemetry(recorder, args)
            if args.collapsed_out:
                from repro.obs.sampler import write_collapsed

                profile = getattr(recorder, "profile", None)
                if profile is not None and profile.samples:
                    try:
                        write_collapsed(profile, args.collapsed_out)
                        print(
                            f"; wrote {profile.samples} samples over "
                            f"{len(profile.pids)} process(es) to "
                            f"{args.collapsed_out}",
                            file=sys.stderr,
                        )
                    except OSError as exc:
                        print(f"warning: cannot write collapsed profile: "
                              f"{exc}", file=sys.stderr)
                else:
                    print(
                        "warning: no stack samples collected; "
                        "collapsed profile not written",
                        file=sys.stderr,
                    )
        else:
            with pool:
                results = pool.run(jobs, progress=progress)
    elapsed = time.monotonic() - start
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for result in results:
            record = result.to_json()
            # Worker telemetry is already merged into the fleet view; keep
            # the per-problem JSONL records lean.
            record.pop("telemetry", None)
            out.write(json.dumps(record, sort_keys=True) + "\n")
    finally:
        if args.out:
            out.close()
    solved = sum(1 for r in results if r.status == "solved")
    crashed = sum(1 for r in results if r.status == CRASHED)
    cache_note = (
        f" cache hits={cache.hits} misses={cache.misses} "
        f"evictions={cache.evictions}"
        if cache is not None
        else ""
    )
    print(
        f"; batch done: {solved}/{len(results)} solved in {elapsed:.2f}s "
        f"with --jobs {args.jobs}{cache_note}",
        file=sys.stderr,
    )
    return 1 if crashed else 0


def _start_telemetry_server(args, pool, recorder):
    """Start the live HTTP endpoint for ``--serve-telemetry`` (best-effort)."""
    if args.serve_telemetry is None:
        return None
    from repro.obs.live import TelemetryServer

    try:
        server = TelemetryServer(
            port=args.serve_telemetry,
            metrics_fn=lambda: recorder.metrics.to_prometheus(),
            jobs_fn=pool.jobs_snapshot,
            health_extra=lambda: {"workers_alive": len(pool.worker_pids())},
        )
        url = server.start()
    except OSError as exc:
        print(f"warning: cannot serve telemetry: {exc}", file=sys.stderr)
        return None
    # Machine-readable discovery line: with `--serve-telemetry 0` the OS
    # picks the port, and wrapper scripts need the bound URL on a stable,
    # greppable line (KEY=value, nothing else on it).
    print(f"TELEMETRY_URL={url}", file=sys.stderr, flush=True)
    print(
        f"; serving telemetry on {url} "
        "(/metrics /healthz /jobs)",
        file=sys.stderr,
    )
    return server


def build_postmortem_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dryadsynth postmortem",
        description=(
            "Reconstruct what a worker was doing from the flight-recorder "
            "journal it left behind (see `dryadsynth batch --flight-dir`)."
        ),
    )
    parser.add_argument(
        "journal",
        help="flight journal (*.flight.jsonl) of a crashed/killed attempt",
    )
    parser.add_argument(
        "--tail",
        type=int,
        default=25,
        metavar="K",
        help="spans/events from the end of the ring to show; 0 shows none "
        "(default: 25)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the raw post-mortem payload as JSON instead of a report",
    )
    return parser


def _postmortem_main(argv) -> int:
    from repro.obs.flight import read_postmortem, render_postmortem

    parser = build_postmortem_arg_parser()
    args = parser.parse_args(argv)
    if args.tail < 0:
        parser.error("--tail must be >= 0")
    try:
        postmortem = read_postmortem(args.journal, tail=args.tail)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if postmortem is None:
        print(
            f"error: no recoverable flight journal at {args.journal}",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(json.dumps(postmortem, indent=1, sort_keys=True))
    else:
        print(render_postmortem(postmortem))
    return 0


def build_serve_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dryadsynth serve",
        description=(
            "Run the long-lived synthesis daemon: SyGuS problems over HTTP "
            "(POST /v1/jobs), per-client fair queues with priorities and "
            "backpressure, cache-first admission, warm workers, and "
            "SIGTERM-triggered graceful drain.  The same listener serves "
            "/metrics, /jobs and /healthz."
        ),
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to bind (default: 0 = OS-assigned; the resolved URL is "
        "printed as a SERVE_URL= line)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="number of warm worker processes (default: 2)",
    )
    parser.add_argument(
        "--solver",
        default="dryadsynth",
        help="default solver when a submission names none "
        f"(default: dryadsynth); any of {', '.join(SOLVER_NAMES)}",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="default per-job budget when a submission names none "
        "(default: 10)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=None,
        metavar="N",
        help="bound on queued-but-not-running jobs before submissions get "
        "429/shedding (default: 4 per worker)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persistent result cache; resubmitted problems return "
        "instantly without consuming a worker",
    )
    parser.add_argument(
        "--results-out",
        metavar="PATH",
        default=None,
        help="append every terminal job record to PATH as JSONL "
        "(flushed per record; survives SIGTERM drain)",
    )
    parser.add_argument(
        "--flight-dir",
        metavar="DIR",
        default=None,
        help="per-job crash flight recorder journals (see "
        "`dryadsynth postmortem`)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="per-job retries after a worker crash (default: 1)",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="record worker-side spans/metrics and merge them into the "
        "daemon's /metrics",
    )
    parser.add_argument(
        "--log-json",
        metavar="PATH",
        default=None,
        help="emit structured JSON log lines (repro-log/1) to PATH, "
        "or to stderr with '-'",
    )
    parser.add_argument(
        "--spans-out",
        metavar="PATH",
        default=None,
        help="on drain, dump the daemon's merged span stream (request "
        "spans + re-rooted worker trees) as JSONL for `dryadsynth "
        "explain` / `dryadsynth profile --trace-chrome`",
    )
    parser.add_argument(
        "--slo-objective",
        type=float,
        default=None,
        metavar="SECONDS",
        help="latency objective for the SLO layer (default: the per-job "
        "timeout)",
    )
    parser.add_argument(
        "--slo-target",
        type=float,
        default=0.95,
        metavar="FRACTION",
        help="fraction of requests that must meet the objective "
        "(default: 0.95)",
    )
    parser.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        metavar="MB",
        help="soft per-worker RSS budget: a worker over it is terminated "
        "and its job completes as oom_budget, never a pool crash",
    )
    return parser


def _serve_main(argv) -> int:
    import signal

    from repro import obs
    from repro.serve import ServeSettings, SynthesisDaemon, build_server
    from repro.serve.slo import SloPolicy
    from repro.service.cache import ResultCache

    args = build_serve_arg_parser().parse_args(argv)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    slo = SloPolicy(
        objective_seconds=(
            args.slo_objective if args.slo_objective is not None
            else args.timeout
        ),
        target=args.slo_target,
    )
    with _json_logging(args), obs.recording() as recorder:
        settings = ServeSettings(
            workers=args.jobs,
            solver=args.solver,
            timeout=args.timeout,
            max_queue=args.max_queue,
            cache=cache,
            results_out=args.results_out,
            flight_dir=args.flight_dir,
            retries=args.retries,
            telemetry=args.telemetry,
            slo=slo,
            max_rss_mb=args.max_rss_mb,
        )
        daemon = SynthesisDaemon(settings)
        try:
            server = build_server(daemon, port=args.port, host=args.host)
            url = server.start()
        except OSError as exc:
            print(f"error: cannot bind: {exc}", file=sys.stderr)
            daemon.stop(drain=False)
            return 2
        # Machine-readable discovery line (stdout, like TELEMETRY_URL= for
        # batch): with --port 0 this is the only way scripts learn the port.
        print(f"SERVE_URL={url}", flush=True)
        print(
            f"serving synthesis on {url} with {args.jobs} worker(s) "
            f"(solver={args.solver}, timeout={args.timeout:g}s, "
            f"max-queue={settings.max_queue}); SIGTERM drains gracefully",
            file=sys.stderr,
        )

        def _drain_signal(signum, frame):  # noqa: ARG001 - signal API
            print(
                f"received {signal.Signals(signum).name}: draining "
                "(no new admissions; finishing accepted jobs)",
                file=sys.stderr,
            )
            daemon.request_drain()

        signal.signal(signal.SIGTERM, _drain_signal)
        signal.signal(signal.SIGINT, _drain_signal)
        try:
            while not daemon.wait_stopped(timeout=0.5):
                pass
        finally:
            server.stop()
        print(
            f"drained: {daemon.completed} job(s) completed, "
            f"{daemon.shed} shed, {daemon.rejected} rejected",
            file=sys.stderr,
        )
        if args.spans_out and recorder is not None:
            from repro.obs.export import write_spans_jsonl

            write_spans_jsonl(recorder, args.spans_out)
            print(f"wrote span dump to {args.spans_out}", file=sys.stderr)
    return 0


def build_profile_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dryadsynth profile",
        description=(
            "Render per-phase time attribution (self vs cumulative wall/CPU) "
            "and the hottest SMT queries from a span dump written with "
            "--spans-out."
        ),
    )
    parser.add_argument("file", help="span JSONL file (from --spans-out)")
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="K",
        help="number of hottest SMT queries to show (default: 10)",
    )
    parser.add_argument(
        "--trace-chrome",
        metavar="PATH",
        default=None,
        help="also convert the span dump to a Chrome/Perfetto trace file",
    )
    return parser


def _profile_main(argv) -> int:
    from repro.obs.export import read_spans_jsonl
    from repro.obs.profile import profile_text
    from repro.obs.sampler import read_profile_record

    args = build_profile_arg_parser().parse_args(argv)
    try:
        spans, events, header = read_spans_jsonl(args.file)
        sampled = read_profile_record(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not spans:
        print("error: no spans in file", file=sys.stderr)
        return 2
    truncated = bool(header.get("truncated"))
    if truncated:
        print(
            "warning: span stream was truncated by the recorder cap; "
            "attribution is computed from a partial stream",
            file=sys.stderr,
        )
    if args.trace_chrome:
        from repro.obs.chrome import write_trace_chrome

        try:
            write_trace_chrome(
                args.trace_chrome, spans, events=events, truncated=truncated
            )
        except OSError as exc:
            print(f"warning: cannot write trace: {exc}", file=sys.stderr)
    try:
        print(profile_text(spans, top=args.top, profile=sampled))
    except BrokenPipeError:
        # Downstream pager/head closed early; not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def build_flame_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dryadsynth flame",
        description=(
            "Render a sampled stack profile: top-k hottest frames (self and "
            "total samples) from a span dump carrying a profile record "
            "(--sample) or from a .collapsed file, with FlameGraph/"
            "speedscope export and diff-vs-baseline mode."
        ),
    )
    parser.add_argument(
        "target",
        help="a span JSONL dump recorded with --sample, or a .collapsed "
        "collapsed-stack file",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=15,
        metavar="K",
        help="hottest frames to show (default: 15)",
    )
    parser.add_argument(
        "--collapsed-out",
        metavar="PATH",
        default=None,
        help="export the profile as collapsed-stack text (feed to "
        "flamegraph.pl or drop into speedscope.app)",
    )
    parser.add_argument(
        "--diff",
        metavar="BASELINE",
        default=None,
        help="diff against a baseline profile (span dump or .collapsed): "
        "shows per-frame self-sample share deltas",
    )
    return parser


def _load_stack_profile(path: str):
    """A StackProfile from either a ``.collapsed`` file or a span dump."""
    from repro.obs.sampler import load_collapsed, read_profile_record

    if path.endswith(".collapsed"):
        return load_collapsed(path)
    return read_profile_record(path)


def _render_flame(profile, top: int) -> str:
    total = profile.samples or 1
    lines = [
        f"sampled profile: {profile.samples} samples over "
        f"{profile.duration:.2f}s at {profile.interval * 1000:.0f}ms interval"
        + (f", pids {sorted(profile.pids)}" if profile.pids else "")
    ]
    self_counts = sorted(
        profile.self_counts().items(), key=lambda kv: (-kv[1], kv[0])
    )
    total_counts = profile.total_counts()
    lines.append(f"top {min(top, len(self_counts))} frames by self samples:")
    lines.append(f"  {'self':>6} {'self%':>6} {'total':>6}  frame")
    for frame, count in self_counts[:top]:
        lines.append(
            f"  {count:>6} {100 * count / total:>5.1f}% "
            f"{total_counts.get(frame, count):>6}  {frame}"
        )
    dark = sum(profile.dark.values())
    lines.append(
        f"dark: {dark}/{profile.samples} samples taken outside any span "
        f"({100 * dark / total:.1f}%)"
    )
    return "\n".join(lines)


def _render_flame_diff(profile, baseline, top: int) -> str:
    """Per-frame self-sample *share* deltas vs a baseline profile.

    Shares (fractions of each run's total samples) rather than raw counts,
    so runs of different lengths compare meaningfully.
    """
    ours = profile.self_counts()
    theirs = baseline.self_counts()
    our_total = profile.samples or 1
    their_total = baseline.samples or 1
    deltas = []
    for frame in set(ours) | set(theirs):
        share_now = ours.get(frame, 0) / our_total
        share_then = theirs.get(frame, 0) / their_total
        delta = share_now - share_then
        if abs(delta) > 1e-9:
            deltas.append((delta, frame, share_now, share_then))
    deltas.sort(key=lambda row: (-abs(row[0]), row[1]))
    lines = [
        f"profile diff: {profile.samples} samples vs "
        f"{baseline.samples} baseline samples "
        f"(self-sample share, positive = hotter now)"
    ]
    if not deltas:
        lines.append("  no per-frame share changes")
        return "\n".join(lines)
    lines.append(f"  {'delta':>8} {'now':>7} {'base':>7}  frame")
    for delta, frame, now, then in deltas[:top]:
        lines.append(
            f"  {100 * delta:>+7.1f}% {100 * now:>6.1f}% "
            f"{100 * then:>6.1f}%  {frame}"
        )
    return "\n".join(lines)


def _flame_main(argv) -> int:
    args = build_flame_arg_parser().parse_args(argv)
    try:
        profile = _load_stack_profile(args.target)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if profile is None or not profile.samples:
        print(
            f"error: no sampled profile in {args.target} "
            "(record one with --sample)",
            file=sys.stderr,
        )
        return 2
    if args.collapsed_out:
        from repro.obs.sampler import write_collapsed

        try:
            write_collapsed(profile, args.collapsed_out)
            print(f"; wrote {args.collapsed_out}", file=sys.stderr)
        except OSError as exc:
            print(f"warning: cannot write collapsed profile: {exc}",
                  file=sys.stderr)
    try:
        if args.diff:
            try:
                baseline = _load_stack_profile(args.diff)
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if baseline is None or not baseline.samples:
                print(f"error: no sampled profile in {args.diff}",
                      file=sys.stderr)
                return 2
            print(_render_flame_diff(profile, baseline, args.top))
        else:
            print(_render_flame(profile, args.top))
    except BrokenPipeError:
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def build_explain_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dryadsynth explain",
        description=(
            "Explain a synthesis run: the subproblem tree with per-node "
            "wall/SMT attribution, the deduction rule-firing table, and — "
            "for unsolved runs — the failure frontier."
        ),
    )
    parser.add_argument(
        "target",
        help="a span JSONL dump (from --spans-out), or a SyGuS-IF .sl "
        "problem to run and explain in one step",
    )
    parser.add_argument(
        "--solver",
        choices=SOLVER_NAMES,
        default="dryadsynth",
        help="solver to run when TARGET is a problem file",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget when TARGET is a problem file",
    )
    return parser


def _explain_main(argv) -> int:
    from repro.obs.explain import build_explain, render_explain

    args = build_explain_arg_parser().parse_args(argv)
    if args.target.endswith((".jsonl", ".json")):
        from repro.obs.export import read_spans_jsonl

        try:
            spans, events, header = read_spans_jsonl(args.target)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not spans:
            print("error: no spans in file", file=sys.stderr)
            return 2
        truncated = bool(header.get("truncated"))
        report = build_explain(spans, events, truncated=truncated)
    else:
        try:
            problem = parse_sygus_file(args.target)
        except (OSError, Exception) as exc:  # noqa: BLE001 - CLI boundary
            print(f"error: {exc}", file=sys.stderr)
            return 2
        from repro import obs
        from repro.sygus.multi import MultiSygusProblem

        if isinstance(problem, MultiSygusProblem):
            print(
                "error: explain runs single-function problems; solve with "
                "--spans-out and explain the dump instead",
                file=sys.stderr,
            )
            return 2
        solver = make_solver(args.solver, args.timeout)
        with obs.recording() as recorder:
            outcome = solver.synthesize(problem)
        status = "solved" if outcome.solution is not None else (
            "timeout" if outcome.timed_out else "fail"
        )
        print(f"; {args.target}: {status}", file=sys.stderr)
        report = build_explain(
            recorder.spans, recorder.events, truncated=recorder.truncated
        )
    try:
        print(render_explain(report))
    except BrokenPipeError:
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def build_diff_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dryadsynth diff",
        description=(
            "Compare two runs' span dumps: per-node self-wall deltas "
            "aligned by stable node id (they partition the total wall "
            "delta exactly), per-problem movers, solved-set changes, "
            "division-strategy drift and the rule-firing delta table."
        ),
    )
    parser.add_argument("run_a", help="baseline span JSONL (from --spans-out)")
    parser.add_argument("run_b", help="candidate span JSONL to compare")
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="K",
        help="node/problem movers to show (default: 10)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the diff as JSON (repro-run-diff/1) instead of a report",
    )
    return parser


def _diff_main(argv) -> int:
    from repro.obs.diff import diff_from_files, render_diff

    args = build_diff_arg_parser().parse_args(argv)
    try:
        diff = diff_from_files(args.run_a, args.run_b)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.json:
            print(json.dumps(diff.to_json(), indent=1, sort_keys=True))
        else:
            print(render_diff(diff, top=args.top))
    except BrokenPipeError:
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def build_smt_replay_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dryadsynth smt-replay",
        description=(
            "Replay a captured SMT query corpus (--smt-corpus) on a fresh "
            "solver: re-check every status, semantically verify every "
            "stored model, and report timing percentiles.  Exit codes: "
            "0 no divergence, 2 usage/IO, 3 corrupt corpus, 4 status "
            "divergence, 5 model divergence."
        ),
    )
    parser.add_argument(
        "corpus",
        help="corpus directory (from --smt-corpus) or a single "
        "*.smtq.jsonl file",
    )
    return parser


def _smt_replay_main(argv) -> int:
    from repro.smt import capture

    args = build_smt_replay_arg_parser().parse_args(argv)
    try:
        report = capture.replay_corpus(args.corpus)
    except capture.CorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(capture.render_report(report))
    kinds = report.kinds()
    if capture.KIND_CORRUPT in kinds:
        return 3
    if capture.KIND_STATUS in kinds:
        return 4
    if capture.KIND_MODEL in kinds:
        return 5
    return 0


def _top_main(argv) -> int:
    from repro.serve.top import main as top_main

    return top_main(argv)


#: ``dryadsynth <name> ...`` -> handler of the remaining arguments; anything
#: else is the single-problem command line.
SUBCOMMANDS = {
    "batch": _batch_main,
    "serve": _serve_main,
    "top": _top_main,
    "profile": _profile_main,
    "flame": _flame_main,
    "postmortem": _postmortem_main,
    "explain": _explain_main,
    "diff": _diff_main,
    "smt-replay": _smt_replay_main,
}


if __name__ == "__main__":
    sys.exit(main())
