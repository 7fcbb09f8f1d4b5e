"""One measured pass, run in a fresh process: ``python -m perfbench.worker``.

Every pass starts from a cold interpreter, so the process-wide caches of
the program (the SMT query memo, compiled terms, interned terms) start
empty on every pass, exactly as for a user running the program once.

The pass description arrives as JSON on stdin::

    {"kind": "synth" | "replay", "workload": ..., "pass": 0,
     "items": [problem names | corpus paths], "budget": 2.0,
     "mode": "plain" | "traced" | "obs" | "setup", "spans": PATH or null}

and the result leaves as one JSON line on stdout.  ``ready`` is the
``time.monotonic()`` reading once the inputs are built; the parent, which
read the same system-wide clock just before starting this process, derives
set-up time from it.  ``mode`` ``setup`` stops there; ``traced`` installs
the layer wrappers of :mod:`perfbench.trace` and writes the pass's spans to
``spans``; ``obs`` runs the pass under the program's own telemetry recorder
(``repro.obs.recording()``) so its overhead can be measured.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from typing import Dict, List

from perfbench.trace import Tracer, install

#: Per-problem counters copied from the solver's ``SynthesisStats``.
STAT_FIELDS = ("smt_checks", "smt_rounds", "theory_lemmas",
               "cegis_iterations", "heights_tried")


def _recording(mode: str):
    if mode != "obs":
        return contextlib.nullcontext()
    from repro import obs

    return obs.recording()


def _solve_one(name: str, problem, budget: float) -> Dict:
    from repro.bench.runner import make_solver

    solver = make_solver("dryadsynth", budget)
    start = time.perf_counter()
    try:
        outcome = solver.synthesize(problem)
    except Exception as exc:  # noqa: BLE001 - an exception is an outcome
        return {"name": name, "outcome": "error",
                "wall": time.perf_counter() - start,
                "error": f"{type(exc).__name__}: {exc}"}
    wall = time.perf_counter() - start
    record = {"name": name, "wall": wall,
              "stats": {k: getattr(outcome.stats, k) for k in STAT_FIELDS}}
    if outcome.solution is not None:
        record.update(outcome="solved",
                      solution=outcome.solution.define_fun(),
                      size=outcome.solution.size)
    else:
        record["outcome"] = "timeout" if outcome.timed_out else "unsolved"
    return record


def run_synth(spec: Dict, tracer) -> Dict:
    from repro.bench.suite import full_suite
    from repro.smt.memo import default_memo
    from repro.smt.simplex import pivots_total

    by_name = {benchmark.name: benchmark for benchmark in full_suite()}
    problems = [(name, by_name[name].problem()) for name in spec["items"]]
    ready = time.monotonic()
    if spec["mode"] == "setup":
        return {"ready": ready}
    memo_before = default_memo().stats()
    pivots_before = pivots_total()
    records: List[Dict] = []
    with _recording(spec["mode"]):
        if tracer is not None:
            tracer.start()
        start = time.perf_counter()
        for name, problem in problems:
            records.append(_solve_one(name, problem, spec["budget"]))
        wall = time.perf_counter() - start
        if tracer is not None:
            wall = tracer.finish()
    memo_after = default_memo().stats()
    return {
        "ready": ready,
        "wall": wall,
        "records": records,
        "pivots": pivots_total() - pivots_before,
        "memo_hits": memo_after["hits"] - memo_before["hits"],
        "memo_misses": memo_after["misses"] - memo_before["misses"],
    }


def run_replay(spec: Dict, tracer) -> Dict:
    from repro.smt.capture import ReplayReport, read_corpus_file, replay_entry
    from repro.smt.memo import QueryMemo
    from repro.smt.simplex import pivots_total

    loaded = [(path, read_corpus_file(path)[1]) for path in spec["items"]]
    ready = time.monotonic()
    if spec["mode"] == "setup":
        return {"ready": ready}
    memo = QueryMemo()
    report = ReplayReport()
    walls: Dict[str, float] = {}
    errors: List[str] = []
    pivots_before = pivots_total()
    if tracer is not None:
        tracer.start()
    start = time.perf_counter()
    for path, entries in loaded:
        name = os.path.basename(path)
        for lineno, entry in entries:
            skipped = report.skipped
            began = time.perf_counter()
            try:
                replay_entry(path, lineno, entry, report, memo=memo)
            except Exception as exc:  # noqa: BLE001 - an exception is an outcome
                errors.append(f"{name}:{lineno}: {type(exc).__name__}: {exc}")
                continue
            if report.skipped == skipped:
                walls[f"{name}:{lineno}"] = time.perf_counter() - began
    wall = time.perf_counter() - start
    if tracer is not None:
        wall = tracer.finish()
    return {
        "ready": ready,
        "wall": wall,
        "walls": walls,
        "attempted": len(walls) + len(errors),
        "skipped": report.skipped,
        "divergences": [
            f"{os.path.basename(d.path)} seq={d.seq} [{d.kind}] {d.detail}"
            for d in report.divergences
        ] + errors,
        "pivots": pivots_total() - pivots_before,
        "memo_hits": memo.hits,
        "memo_misses": memo.misses,
    }


def main() -> int:
    spec = json.load(sys.stdin)
    tracer = None
    if spec["mode"] == "traced":
        import repro.bench.runner  # noqa: F401 - load every wrap target first
        import repro.smt.capture  # noqa: F401

        tracer = Tracer()
        install(tracer)
    run = run_replay if spec["kind"] == "replay" else run_synth
    result = run(spec, tracer)
    if tracer is not None:
        result["counts"] = dict(tracer.counts)
        tracer.write(spec["spans"], spec["workload"], spec["pass"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
