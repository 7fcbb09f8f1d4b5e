"""Self-test of the benchmark: ``python3 -m pytest perfbench`` from the root.

Runs every workload in ``--smoke`` mode (a few inputs each) with tracing
off and on, and checks the answer checker, outcome classes, the span
attribution and the refusals.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import trace, worker, workloads  # noqa: E402
from perfbench.check import AnswerChecker, check_answer  # noqa: E402

MEASURED = ("suite-2s", "frontier-10s", "smt-replay", "serve-cache")


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "perfbench", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke_runs():
    runs = {}
    for workload in MEASURED:
        for flag in ("0", "1"):
            proc = _bench("--workload", workload, "--smoke", "--seconds", "0",
                          "--trace", flag)
            assert proc.returncode == 0, proc.stderr
            spans_path = os.path.join(ROOT, "perfbench-spans.jsonl")
            spans = None
            if flag == "1" and os.path.exists(spans_path):
                spans = trace.read_spans(spans_path)
            runs[workload, flag] = (proc.stdout.splitlines(), spans)
    return runs


def test_every_metric_printed_with_its_unit(smoke_runs):
    spec = _spec()
    for (workload, flag), (lines, _) in smoke_runs.items():
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        wanted = spec["per_layer" if flag == "1" else "end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in wanted]
        for metric in wanted:
            value = result["metrics"][metric["name"]]
            assert value["unit"] == metric["unit"]
            assert f"{workload} {metric['name']} {value['value']!r} {metric['unit']}" in lines
            if flag == "0":
                assert value["value"] > 0, (workload, metric["name"])


def test_every_layer_metric_moves_on_some_workload(smoke_runs):
    for metric in _spec()["per_layer"]:
        if metric["name"] in ("serve.refused", "obs.recording_overhead_pct",
                              "trace.overhead_pct"):
            continue  # legitimately zero or either sign
        values = [json.loads(lines[-1])["metrics"][metric["name"]]["value"]
                  for (_, flag), (lines, _) in smoke_runs.items() if flag == "1"]
        assert any(values), metric["name"]


def test_traced_self_times_sum_to_the_pass_wall(smoke_runs):
    _, spans = smoke_runs["smt-replay", "1"]
    assert spans
    for records in spans.values():
        selfs = trace.attribute(records)
        root = next(r for r in records if r["parent"] is None)
        wall = root["end"] - root["start"]
        assert abs(sum(selfs.values()) - wall) <= 1e-6 * wall
        assert selfs[trace.UNATTRIBUTED] >= 0


def test_attribution_rejects_a_child_outside_its_parent():
    records = [
        {"id": 0, "name": "pass", "start": 0.0, "end": 1.0, "parent": None},
        {"id": 1, "name": "smt", "start": 0.5, "end": 1.5, "parent": 0},
    ]
    with pytest.raises(ValueError):
        trace.attribute(records)


def test_checker_rejects_a_wrong_max2_body():
    from repro.lang.builders import int_var, ite, ge

    problem = workloads.build_problems(["max2"])["max2"]
    x0, x1 = (int_var(p.payload) for p in problem.synth_fun.params)
    assert not check_answer(problem, x0).correct
    assert check_answer(problem, ite(ge(x0, x1), x0, x1)).correct
    checker = AnswerChecker({"max2": problem})
    assert not checker.check("max2", "(define-fun f ((x0 Int) (x1 Int)) Int x0)").correct
    assert not checker.check("max2", "not an answer").correct


def test_an_exception_is_an_error_not_a_timeout(monkeypatch):
    import repro.bench.runner as runner

    class Exploding:
        def synthesize(self, problem):
            raise ValueError("injected")

    monkeypatch.setattr(runner, "make_solver", lambda name, budget: Exploding())
    problem = workloads.build_problems(["max2"])["max2"]
    record = worker._solve_one("max2", problem, 2.0)
    assert record["outcome"] == "error"
    assert "ValueError: injected" in record["error"]


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "suite-2s", "--seconds", "1", "--seed", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_refuses_moved_inputs(monkeypatch, capsys):
    from perfbench.__main__ import Run, parse_args

    monkeypatch.setattr(workloads, "pinned_digests", lambda: {})
    run = Run(parse_args(["--workload", "frontier-10s"]))
    with pytest.raises(SystemExit) as exit_info:
        run.load()
    assert exit_info.value.code == 3
