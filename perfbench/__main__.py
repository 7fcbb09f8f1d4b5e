"""Command line of the benchmark.

    python3 -m perfbench --workload NAME [--seed N] [--seconds S]
                         [--trace 0|1] [--smoke] [--out REPORT.json]

Run from the repository root.  It prints every metric as one
``workload metric value unit`` line, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports
its per-layer metrics and writes every span to ``perfbench-spans.jsonl``.
``--smoke`` runs a few inputs per workload (used by the self-test).

Exit codes: 0 every answer checked correct; 1 a wrong answer, a replay
divergence or a served solved set that differs from suite-2s; 2 the
program or its inputs are missing, or a pass failed or left an inconsistent
trace; 3 the inputs do not match the digests pinned in ``inputs.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for about this long (default: 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced passes")
    parser.add_argument("--smoke", action="store_true",
                        help="a few inputs per workload, for the self-test")
    parser.add_argument("--out", default=None,
                        help="also write the full report (per-input records) here")
    return parser.parse_args(argv)


def load_metric_specs(trace: bool) -> List[Dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


class Run:
    """One invocation: inputs, measurement, answer checks and the report."""

    def __init__(self, args) -> None:
        from perfbench.passes import Settings

        self.args = args
        self.workload = args.workload
        self.notes: List[str] = []
        self.wrong: List[str] = []
        self.failures: List[str] = []
        self.attempted = 0
        self.report: List[Dict] = []
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        # The work done does not depend on the hash seed (the counters agree
        # under any seed), but dict and set layouts do; one seed for every
        # run keeps that out of the timings.
        env["PYTHONHASHSEED"] = "0"
        self.settings = Settings(
            workload=args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), root=ROOT, env=env,
            spans_path=os.path.join(ROOT, "perfbench-spans.jsonl"),
        )

    # -- inputs -------------------------------------------------------------

    def load(self):
        from perfbench import workloads

        items, problems, digest = workloads.load_inputs(ROOT, self.workload)
        pinned = workloads.pinned_digests().get(self.workload)
        if digest != pinned:
            print(f"perfbench: {self.workload} inputs changed: sha256 {digest} "
                  f"!= pinned {pinned} in {workloads.PINS}", file=sys.stderr)
            raise SystemExit(3)
        if self.args.smoke:
            items = workloads.smoke_subset(self.workload, items)
        return items, problems

    # -- outcomes -----------------------------------------------------------

    def _checked(self, checker, record: Dict) -> None:
        self.attempted += 1
        if record["outcome"] == "solved":
            verdict = checker.check(record["name"], record.get("solution"))
            record["in_grammar"] = verdict.in_grammar
            if not verdict.correct:
                record["outcome"] = "wrong"
                record["error"] = verdict.detail
                self.wrong.append(f"{record['name']}: {verdict.detail}")
        if record["outcome"] != "solved":
            self.failures.append(
                f"{record['name']}: {record['outcome']}"
                + (f" ({record['error']})" if record.get("error") else ""))

    def measure(self) -> Tuple[Dict, Dict]:
        """Returns ``(end_to_end, per_layer)`` metric values."""
        from perfbench import passes, workloads
        from perfbench.check import AnswerChecker

        items, problems = self.load()
        if self.settings.trace and os.path.exists(self.settings.spans_path):
            os.remove(self.settings.spans_path)
        checker = AnswerChecker(problems)
        if self.workload == workloads.REPLAY:
            def on_pass(result):
                self.attempted += result["attempted"]
                self.wrong.extend(result["divergences"])
                self.failures.extend(result["divergences"])

            runs, setups = passes.run_passes(self.settings, "replay", items, 0.0,
                                             on_pass)
            self.report = runs
            decided = sum(len(p["walls"]) for p in runs)
            self.notes.append(f"queries replayed {decided}, aborted captures "
                              f"skipped {sum(p['skipped'] for p in runs)}, "
                              f"divergences {len(self.wrong)}")
            layers = passes.per_layer(self.settings, runs) if self.settings.trace else {}
            return passes.replay_end_to_end(runs, setups), layers
        if self.workload == workloads.SERVE:
            return self._measure_serve(items, problems, checker)
        budget = workloads.BUDGET[self.workload]

        def on_pass(result):
            for record in result["records"]:
                self._checked(checker, record)

        runs, setups = passes.run_passes(self.settings, "synth", items, budget,
                                         on_pass)
        self.report = runs
        off = sorted({r["name"] for p in runs for r in p["records"]
                      if r["outcome"] == "solved" and not r["in_grammar"]})
        self.notes.append(f"answers outside their grammar ({len(off)}): "
                          + ", ".join(off))
        layers = passes.per_layer(self.settings, runs) if self.settings.trace else {}
        return passes.synth_end_to_end(runs, setups, budget), layers

    def _measure_serve(self, names, problems, checker) -> Tuple[Dict, Dict]:
        from perfbench import serve
        from repro.sygus.serializer import problem_to_sygus

        texts = {name: problem_to_sygus(problems[name]) for name in names}
        expected = set(names)

        def check(cycle):
            for record in cycle["misses"] + cycle["hits"]:
                self._checked(checker, record)
            solved = {r["name"] for r in cycle["misses"] + cycle["hits"]
                      if r["outcome"] == "solved"}
            if solved != expected:
                self.wrong.append(f"cycle {cycle['index']}: served solved set "
                                  f"differs from {self.workload} by "
                                  f"{sorted(expected ^ solved)}")

        scratch_parent = os.path.join(ROOT, ".perfbench-tmp")
        os.makedirs(scratch_parent, exist_ok=True)
        scratch = tempfile.mkdtemp(prefix="serve-", dir=scratch_parent)
        try:
            cycles = serve.run_cycles(self.settings, texts, scratch, check)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            try:
                os.rmdir(scratch_parent)
            except OSError:
                pass
        self.report = cycles
        layers = serve.per_layer(cycles) if self.settings.trace else {}
        return serve.end_to_end(cycles), layers

    # -- report -------------------------------------------------------------

    def outcome_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for unit in self.report:
            for record in unit.get("records", []) + unit.get("misses", []) + unit.get("hits", []):
                counts[record["outcome"]] = counts.get(record["outcome"], 0) + 1
        return counts


def select(values: Dict[str, float], specs: List[Dict], fill: bool) -> Dict:
    """The reported metrics, in ``BENCHMARK.json`` order.

    Per-layer metrics of a layer the workload never reaches are reported as
    0 (``fill``); an end-to-end metric must always be measured.
    """
    from perfbench.passes import BenchError

    names = {spec["name"] for spec in specs}
    unknown = sorted(set(values) - names)
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for spec in specs:
        if spec["name"] not in values and not fill:
            raise BenchError(f"metric {spec['name']} was not measured")
        metrics[spec["name"]] = {"value": float(values.get(spec["name"], 0.0)),
                                 "unit": spec["unit"]}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")) or not os.path.exists(
            os.path.join(ROOT, "BENCHMARK.json")):
        print("perfbench: run from a repository checkout: src/repro and "
              "BENCHMARK.json are required", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from perfbench.passes import BenchError

    run = Run(args)
    try:
        e2e, layers = run.measure()
        trace = bool(args.trace)
        metrics = select(layers if trace else e2e, load_metric_specs(trace), fill=trace)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']!r} {metric['unit']}")
    counts = run.outcome_counts()
    if counts:
        print(f"# {args.workload} outcomes: "
              + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    for note in run.notes:
        print(f"# {args.workload} {note}")
    for failure in sorted(set(run.failures))[:20]:
        print(f"# {args.workload} not solved: {failure}")
    correct = not run.wrong
    result = {"correct": correct, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({**result, "workload": args.workload, "seed": args.seed,
                       "end_to_end": e2e, "per_layer": layers,
                       "wrong": run.wrong, "units": run.report},
                      handle, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
