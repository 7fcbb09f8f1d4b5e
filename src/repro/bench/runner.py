"""Portfolio runner: execute solvers over the suite and collect results.

Results are cached on disk (JSON) keyed by benchmark, solver and timeout, so
the per-figure benchmark harnesses share one set of runs, exactly the way
the paper derives all of Figures 10-16 and Table 1 from a single StarExec
campaign.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.suite import Benchmark, full_suite
from repro.baselines import CegqiSolver, EnumerativeSolver, LoopInvGenSolver
from repro.synth.cooperative import CooperativeSynthesizer
from repro.synth.deduction import Deducer
from repro.synth.fixed_height import HeightEnumerationSynthesizer
from repro.synth.result import SynthesisOutcome, SynthesisStats

#: Default per-benchmark timeout (seconds); override via REPRO_BENCH_TIMEOUT.
DEFAULT_TIMEOUT = float(os.environ.get("REPRO_BENCH_TIMEOUT", "10"))

#: The solvers the figures and the table read: the campaign's default.
FIGURE_SOLVERS = (
    "dryadsynth",
    "cegqi",
    "eusolver",
    "loopinvgen",
    "height-enum",
    "deduction",
    "dryadsynth-euback",
)

#: Every solver :func:`make_solver` builds by name.
SOLVER_NAMES = FIGURE_SOLVERS + ("portfolio",)


@dataclass
class RunResult:
    """One (benchmark, solver) execution."""

    benchmark: str
    track: str
    solver: str
    solved: bool
    time_seconds: float
    solution_size: Optional[int] = None
    solution_height: Optional[int] = None
    timed_out: bool = False
    deduction_solved: bool = False

    def to_json(self) -> Dict:
        return asdict(self)

    @staticmethod
    def from_json(data: Dict) -> "RunResult":
        return RunResult(**data)


class _DeductionOnlySolver:
    """Algorithm 3 standalone (the Figure 15 ablation).

    Deduction runs no search that a deadline could cut short, so the
    timeout is taken only to share the solvers' constructor.
    """

    name = "deduction"

    def __init__(self, timeout: Optional[float] = None):
        self.timeout = timeout

    def synthesize(self, problem) -> SynthesisOutcome:
        from repro.sygus.problem import Solution

        stats = SynthesisStats()
        start = time.monotonic()
        result = Deducer(problem, stats).deduct()
        if result.solution is None:
            return SynthesisOutcome(None, stats)
        elapsed = time.monotonic() - start
        return SynthesisOutcome(
            Solution(problem, result.solution, self.name, elapsed), stats
        )


def _euback_engine(problem, height, examples, deadline, stats, session_store=None):
    """EUSolver as the enumerative component (the Figure 16 hybrid).

    The paper could not bound EUSolver's search per height, so each call
    searches a growing size class instead of an exact height.  Like the
    fixed-height engine it replaces, this runs a full CEGIS loop, so only
    *verified* candidates are returned.  It keeps no state between calls,
    so it ignores the node's ``session_store``.
    """
    from repro.synth.cegis import cegis

    solver = EnumerativeSolver(max_size=3 * height)

    def ind_synth(current_examples):
        return solver.synthesize_from_examples(
            problem, current_examples, deadline, stats
        )

    body, _, iterations = cegis(
        problem, ind_synth, examples=examples, deadline=deadline
    )
    stats.cegis_iterations += iterations
    return body


def make_solver(name: str, timeout: Optional[float] = None):
    """Instantiate a solver by portfolio name with a wall-clock budget."""
    if name == "portfolio":
        from repro.synth.portfolio import SequentialPortfolio

        return SequentialPortfolio.default(timeout)
    if name == "dryadsynth":
        return CooperativeSynthesizer(timeout)
    if name == "cegqi":
        return CegqiSolver(timeout)
    if name == "eusolver":
        return EnumerativeSolver(timeout)
    if name == "loopinvgen":
        return LoopInvGenSolver(timeout)
    if name == "height-enum":
        return HeightEnumerationSynthesizer(timeout)
    if name == "deduction":
        return _DeductionOnlySolver(timeout)
    if name == "dryadsynth-euback":
        return CooperativeSynthesizer(
            timeout, enum_engine=_euback_engine, name="dryadsynth-euback"
        )
    raise ValueError(f"unknown solver {name!r}")


def run_benchmark(
    benchmark: Benchmark, solver_name: str, timeout: float
) -> RunResult:
    """Run one solver on one benchmark with a wall-clock budget."""
    problem = benchmark.problem()
    solver = make_solver(solver_name, timeout)
    start = time.monotonic()
    try:
        outcome = solver.synthesize(problem)
    except Exception:
        # A crash is unsolved; like any run, it timed out only if the wall
        # time passed the budget (the pool path records it as ``error``).
        outcome = SynthesisOutcome(None, SynthesisStats())
    elapsed = time.monotonic() - start
    result = RunResult(
        benchmark=benchmark.name,
        track=benchmark.track,
        solver=solver_name,
        solved=outcome.solved,
        time_seconds=round(elapsed, 4),
        timed_out=outcome.timed_out or elapsed > timeout,
        deduction_solved=outcome.stats.deduction_solved,
    )
    if outcome.solution is not None:
        result.solution_size = outcome.solution.size
        result.solution_height = outcome.solution.height
    return result


class ResultsCache:
    """Disk-backed cache of run results shared by the figure harnesses."""

    def __init__(self, path: Optional[str] = None):
        if path is None:
            path = os.environ.get(
                "REPRO_BENCH_CACHE",
                os.path.join(os.path.dirname(__file__), "..", "..", "..",
                             "bench_results.json"),
            )
        self.path = os.path.abspath(path)
        self._results: Dict[str, Dict] = {}
        self._load()

    @staticmethod
    def _key(benchmark: str, solver: str, timeout: float) -> str:
        return f"{benchmark}::{solver}::{timeout:g}"

    def _load(self) -> None:
        if os.path.exists(self.path):
            try:
                with open(self.path) as handle:
                    self._results = json.load(handle)
            except (OSError, json.JSONDecodeError):
                self._results = {}

    def save(self) -> None:
        with open(self.path, "w") as handle:
            json.dump(self._results, handle, indent=1, sort_keys=True)

    def get(self, benchmark: Benchmark, solver: str, timeout: float) -> Optional[RunResult]:
        data = self._results.get(self._key(benchmark.name, solver, timeout))
        return RunResult.from_json(data) if data else None

    def put(self, result: RunResult, timeout: float) -> None:
        self._results[self._key(result.benchmark, result.solver, timeout)] = (
            result.to_json()
        )


def run_suite(
    benchmarks: Optional[Sequence[Benchmark]] = None,
    solvers: Sequence[str] = FIGURE_SOLVERS,
    timeout: float = DEFAULT_TIMEOUT,
    cache: Optional[ResultsCache] = None,
    use_cache: bool = True,
    progress: Optional[Callable[[RunResult], None]] = None,
    jobs: int = 1,
) -> List[RunResult]:
    """Run the portfolio; returns one :class:`RunResult` per (bench, solver).

    With ``jobs > 1`` the campaign executes on the service's
    :class:`~repro.service.pool.WorkerPool`: ``jobs`` worker processes, a
    hard deadline per run enforced by the parent, crash isolation with one
    retry.  Results (and their on-disk cache) are identical either way.
    """
    if benchmarks is None:
        benchmarks = full_suite()
    if cache is None and use_cache:
        cache = ResultsCache()
    if jobs > 1:
        return _run_suite_parallel(benchmarks, solvers, timeout, cache, progress, jobs)
    results: List[RunResult] = []
    for benchmark in benchmarks:
        for solver_name in solvers:
            result = cache.get(benchmark, solver_name, timeout) if cache else None
            if result is None:
                result = run_benchmark(benchmark, solver_name, timeout)
                if cache:
                    cache.put(result, timeout)
                    # Persist after every fresh run: campaigns are long and
                    # must survive interruption.
                    cache.save()
            results.append(result)
            if progress is not None:
                progress(result)
    return results


def _run_suite_parallel(
    benchmarks: Sequence[Benchmark],
    solvers: Sequence[str],
    timeout: float,
    cache: Optional[ResultsCache],
    progress: Optional[Callable[[RunResult], None]],
    jobs: int,
) -> List[RunResult]:
    """Campaign execution through the process-parallel job engine."""
    from repro.service.jobs import JobResult, SynthesisJob
    from repro.service.pool import WorkerPool

    order: List[Tuple[Benchmark, str]] = [
        (benchmark, solver) for benchmark in benchmarks for solver in solvers
    ]
    completed: Dict[str, RunResult] = {}
    todo: List[SynthesisJob] = []
    todo_keys: List[Tuple[Benchmark, str]] = []
    for benchmark, solver_name in order:
        key = f"{benchmark.name}::{solver_name}"
        cached = cache.get(benchmark, solver_name, timeout) if cache else None
        if cached is not None:
            completed[key] = cached
            continue
        todo.append(
            SynthesisJob.from_problem(
                benchmark.problem(),
                solver=solver_name,
                timeout=timeout,
                job_id=key,
                name=benchmark.name,
            )
        )
        todo_keys.append((benchmark, solver_name))
    if todo:
        by_id = {key: pair for key, pair in zip((j.job_id for j in todo), todo_keys)}

        def on_result(job_result: JobResult) -> None:
            benchmark, solver_name = by_id[job_result.job_id]
            run = _job_to_run_result(benchmark, solver_name, timeout, job_result)
            completed[job_result.job_id] = run
            if cache:
                cache.put(run, timeout)
                cache.save()

        with WorkerPool(workers=jobs) as pool:
            pool.run(todo, progress=on_result)
    results: List[RunResult] = []
    for benchmark, solver_name in order:
        result = completed[f"{benchmark.name}::{solver_name}"]
        results.append(result)
        if progress is not None:
            progress(result)
    return results


def _job_to_run_result(
    benchmark: Benchmark, solver_name: str, timeout: float, job_result
) -> RunResult:
    """Translate a service :class:`JobResult` into the campaign's record."""
    solved = job_result.status == "solved"
    return RunResult(
        benchmark=benchmark.name,
        track=benchmark.track,
        solver=solver_name,
        solved=solved,
        time_seconds=round(job_result.wall_time, 4),
        solution_size=job_result.solution_size,
        solution_height=job_result.solution_height,
        timed_out=job_result.status in ("timeout", "crashed")
        or job_result.wall_time > timeout,
        deduction_solved=bool(job_result.stats.get("deduction_solved", False)),
    )
