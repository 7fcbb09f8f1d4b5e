"""Workloads measured in passes: suite-2s, frontier-10s, frontier-open, smt-replay.

A pass runs the workload's whole input set once, in seeded order, in a
fresh process (:mod:`perfbench.worker`).  Passes repeat until the next one
would end past the run's ``--seconds``, with at least two per run.  In a
``--trace 1`` run the passes cycle through the modes plain, traced and (for
suite-2s) obs, so tracing overhead is measured inside the same run as the
traced figures.

Timings use each input's fastest repetition in the run; ``pass_s`` is
their sum.  The reference machine's speed drifts by up to 50% over 10 to
60 s (a fixed pure-Python loop, timed every 40 ms, shows it in CPU time as
much as in wall time), and the best repetition is the figure that drift
moves least; README.md has the spreads that decided this.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from perfbench import stats
from perfbench.trace import ATTRIBUTION_TOLERANCE, UNATTRIBUTED, attribute, read_spans
from perfbench.workloads import SUITE, seeded_order

#: A pass that has not finished by then is killed and the run fails.
WORKER_TIMEOUT = 150.0

MIN_PASSES = 2

#: Extra processes per untraced run that only build the inputs.
SETUP_PROBES = 5

#: Layers recorded as spans; each reports ``<layer>.self_s``.
LAYERS = ("coop", "deduction", "divide", "enum", "minimize", "verify",
          "compile", "simplify", "smt", "sat", "lia", "simplex")
#: Layers whose call count is a per-layer metric (``simplex`` reports its
#: calls as ``simplex.checks``, one per branch-and-bound leaf).
COUNTED = ("deduction", "divide", "enum", "verify", "compile", "simplify",
           "smt", "sat", "lia")
#: Work counters copied as they are.
COUNTERS = ("smt.rounds", "smt.theory_conflicts", "smt.lemmas",
            "sat.conflicts", "sat.decisions", "lia.core_min_calls")


class BenchError(Exception):
    """The run cannot produce a trustworthy report."""


@dataclass
class Settings:
    workload: str
    seed: int
    seconds: float
    trace: bool
    root: str
    env: Dict[str, str]
    spans_path: str


def modes(settings: Settings) -> List[str]:
    if not settings.trace:
        return ["plain"]
    if settings.workload == SUITE:
        return ["plain", "traced", "obs"]
    return ["plain", "traced"]


def run_worker(settings: Settings, spec: Dict) -> Dict:
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.worker"],
            input=json.dumps(spec), capture_output=True, text=True,
            cwd=settings.root, env=settings.env, timeout=WORKER_TIMEOUT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {spec['pass']} did not finish in "
                         f"{WORKER_TIMEOUT:g} s") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"pass {spec['pass']} failed "
                         f"(exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def another_fits(done: int, least: int, started: float, longest: float,
                 seconds: float) -> bool:
    """The stopping rule of a run: at least ``least`` units, then more only
    while one as long as the longest so far still ends within ``seconds``."""
    return done < least or time.monotonic() - started + longest <= seconds


def run_passes(
    settings: Settings,
    kind: str,
    items: Sequence,
    budget: float,
    on_pass: Callable[[Dict], None],
) -> Tuple[List[Dict], List[float]]:
    """Run passes until the run's time is spent; ``on_pass`` checks each.

    Returns the passes and the set-up times: of every pass, and of
    ``SETUP_PROBES`` extra processes that only build the inputs, so that
    set-up time is a median of several samples even when few passes fit.
    """
    cycle = modes(settings)
    least = max(MIN_PASSES, len(cycle))
    passes: List[Dict] = []
    setups: List[float] = []
    started = time.monotonic()
    longest = 0.0
    probes = 0 if settings.trace else SETUP_PROBES
    for index in itertools.count():
        mode = "setup" if index < probes else cycle[(index - probes) % len(cycle)]
        spec = {
            "kind": kind,
            "workload": settings.workload,
            "pass": index,
            "items": seeded_order(items, settings.seed, index),
            "budget": budget,
            "mode": mode,
            "spans": settings.spans_path,
        }
        began = time.monotonic()
        result = run_worker(settings, spec)
        setups.append(result["ready"] - began)
        if mode != "setup":
            result.update(mode=mode, index=index)
            on_pass(result)
            passes.append(result)
        longest = max(longest, time.monotonic() - began)
        if not another_fits(len(passes), least, started, longest, settings.seconds):
            return passes, setups


def _by_mode(passes: Sequence[Dict], mode: str) -> List[Dict]:
    return [p for p in passes if p["mode"] == mode]


def peak_rss_mb() -> float:
    import resource

    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------


def _best(samples: Sequence[Dict[str, float]]) -> List[float]:
    """Each input's fastest repetition in seconds, over the passes."""
    best: Dict[str, float] = defaultdict(lambda: float("inf"))
    for walls in samples:
        for key, wall in walls.items():
            best[key] = min(best[key], wall)
    return list(best.values())


def _timings(best: Sequence[float]) -> Dict[str, float]:
    ms = [wall * 1000.0 for wall in best]
    return {"pass_s": sum(best),
            "latency_ms_p50": stats.percentile(ms, 0.50),
            "latency_ms_p90": stats.percentile(ms, 0.90)}


def synth_end_to_end(passes: Sequence[Dict], setups: Sequence[float],
                     budget: float) -> Dict[str, float]:
    plain = _by_mode(passes, "plain")
    # PAR-1: an unsolved or failed problem is charged the whole budget.
    charged = _best([{r["name"]: r["wall"] if r["outcome"] == "solved" else budget
                      for r in p["records"]} for p in plain])
    return {
        "solved": stats.median([
            sum(r["outcome"] == "solved" for r in p["records"]) for p in plain
        ]),
        **_timings(charged),
        "setup_s": stats.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def replay_end_to_end(passes: Sequence[Dict],
                      setups: Sequence[float]) -> Dict[str, float]:
    plain = _by_mode(passes, "plain")
    return {
        "solved": stats.median([p["attempted"] - len(p["divergences"])
                                for p in plain]),
        **_timings(_best([p["walls"] for p in plain])),
        "setup_s": stats.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _layer_values(result: Dict, selfs: Dict[str, float]) -> Dict[str, float]:
    counts = result["counts"]
    values = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS}
    values["unattributed.self_s"] = selfs[UNATTRIBUTED]
    for layer in COUNTED:
        values[f"{layer}.calls"] = counts.get(f"{layer}.calls", 0.0)
    for name in COUNTERS:
        values[name] = counts.get(name, 0.0)
    values["simplex.checks"] = counts.get("simplex.calls", 0.0)
    values["simplex.pivots"] = result["pivots"]
    values["deduction.solve_ratio"] = stats.ratio(
        counts.get("deduction.solved", 0.0), counts.get("deduction.calls", 0.0))
    values["divide.splits_per_call"] = stats.ratio(
        counts.get("divide.splits", 0.0), counts.get("divide.calls", 0.0))
    values["enum.hit_ratio"] = stats.ratio(
        counts.get("enum.hits", 0.0), counts.get("enum.calls", 0.0))
    values["lia.feasible_ratio"] = stats.ratio(
        counts.get("lia.feasible", 0.0), counts.get("lia.calls", 0.0))
    values["memo.hit_ratio"] = stats.ratio(
        result["memo_hits"], result["memo_hits"] + result["memo_misses"])
    solved = [r for r in result.get("records", ()) if r["outcome"] == "solved"]
    values["enum.cegis_iterations"] = sum(
        r["stats"]["cegis_iterations"] for r in solved)
    values["enum.heights_tried"] = sum(
        r["stats"]["heights_tried"] for r in solved)
    values["check.off_grammar"] = sum(
        not r.get("in_grammar", True) for r in solved)
    values["answer.size_p50"] = stats.median([r["size"] for r in solved])
    return values


def per_layer(settings: Settings, passes: Sequence[Dict]) -> Dict[str, float]:
    """Median over the traced passes; self times checked against pass walls."""
    spans = read_spans(settings.spans_path)
    per_pass: List[Dict[str, float]] = []
    for result in _by_mode(passes, "traced"):
        records = spans.get((settings.workload, result["index"]))
        if not records:
            raise BenchError(f"no spans written for pass {result['index']}")
        try:
            selfs = attribute(records)
        except ValueError as exc:
            raise BenchError(f"pass {result['index']}: {exc}") from exc
        if abs(sum(selfs.values()) - result["wall"]) > ATTRIBUTION_TOLERANCE * result["wall"]:
            raise BenchError(f"pass {result['index']}: self times do not add "
                             "up to the measured pass wall")
        per_pass.append(_layer_values(result, selfs))
    values = {name: stats.median([v[name] for v in per_pass])
              for name in per_pass[0]}
    plain_walls = [p["wall"] for p in _by_mode(passes, "plain")]
    values["trace.overhead_pct"] = stats.overhead_pct(
        [p["wall"] for p in _by_mode(passes, "traced")], plain_walls)
    values["obs.recording_overhead_pct"] = stats.overhead_pct(
        [p["wall"] for p in _by_mode(passes, "obs")], plain_walls)
    return values
