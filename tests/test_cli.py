"""Tests for the dryadsynth command-line interface."""

import pytest

from repro.cli import build_arg_parser, main

MAX2_SL = """
(set-logic LIA)
(synth-fun max2 ((x Int) (y Int)) Int)
(declare-var x Int)
(declare-var y Int)
(constraint (>= (max2 x y) x))
(constraint (>= (max2 x y) y))
(constraint (or (= (max2 x y) x) (= (max2 x y) y)))
(check-synth)
"""


@pytest.fixture
def max2_file(tmp_path):
    path = tmp_path / "max2.sl"
    path.write_text(MAX2_SL)
    return str(path)


class TestArgParser:
    def test_defaults(self):
        args = build_arg_parser().parse_args(["problem.sl"])
        assert args.solver == "dryadsynth"
        assert args.timeout is None

    def test_solver_choices(self):
        args = build_arg_parser().parse_args(["--solver", "eusolver", "p.sl"])
        assert args.solver == "eusolver"
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args(["--solver", "z3", "p.sl"])


class TestMain:
    def test_solves_and_prints_define_fun(self, max2_file, capsys):
        code = main([max2_file, "--timeout", "60"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("(define-fun max2 ((x Int) (y Int)) Int")

    def test_missing_file_errors(self, capsys):
        code = main(["/nonexistent/problem.sl"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "constraint,message",
        [
            ("(>= (f x))", "operator '>=' takes at least 2 arguments, got 1"),
            ("(not (>= (f x) x) (< x 0))",
             "operator 'not' takes 1 argument, got 2"),
        ],
    )
    def test_wrong_operator_arity_exits_2(
        self, tmp_path, capsys, constraint, message
    ):
        path = tmp_path / "bad.sl"
        path.write_text(
            "(set-logic LIA)\n(synth-fun f ((x Int)) Int)\n"
            f"(declare-var x Int)\n(constraint {constraint})\n(check-synth)\n"
        )
        code = main([str(path), "--timeout", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_chained_equality_is_not_solved_by_dropping_an_argument(
        self, tmp_path, capsys
    ):
        """``(= (f x) x 5)`` demands ``x = 5`` for every x: unrealizable."""
        path = tmp_path / "chain.sl"
        path.write_text(
            "(set-logic LIA)\n(synth-fun f ((x Int)) Int)\n"
            "(declare-var x Int)\n(constraint (= (f x) x 5))\n(check-synth)\n"
        )
        code = main([str(path), "--timeout", "10"])
        assert code == 1
        assert "define-fun" not in capsys.readouterr().out

    def test_stats_flag(self, max2_file, capsys):
        code = main([max2_file, "--timeout", "60", "--stats"])
        assert code == 0
        err = capsys.readouterr().err
        assert "time=" in err

    def test_alternate_solver(self, max2_file, capsys):
        code = main([max2_file, "--solver", "cegqi", "--timeout", "30"])
        assert code == 0
        assert "(define-fun max2" in capsys.readouterr().out

    def test_solution_actually_verifies(self, max2_file, capsys):
        from repro.lang import evaluate
        from repro.sygus.parser import parse_sygus_text, parse_sygus_file

        code = main([max2_file, "--timeout", "60"])
        printed = capsys.readouterr().out.strip()
        assert code == 0
        # Re-parse the printed define-fun and check it is a real max.
        from repro.lang.sexpr import parse_sexpr

        sexpr = parse_sexpr(printed)
        assert sexpr[0] == "define-fun"


MULTI_SL = """
(set-logic LIA)
(synth-fun f ((x Int)) Int)
(synth-fun g ((x Int)) Int)
(declare-var x Int)
(constraint (= (f x) (+ x 2)))
(constraint (= (g x) (- x 2)))
(check-synth)
"""


# Coupled: one constraint mentions both functions, so they are solved
# jointly, which takes far longer than the budgets below.
COUPLED_SL = """
(set-logic LIA)
(synth-fun bigger ((x Int) (y Int)) Int)
(synth-fun smaller ((x Int) (y Int)) Int)
(declare-var x Int)
(declare-var y Int)
(constraint (>= (bigger x y) x))
(constraint (>= (bigger x y) y))
(constraint (<= (smaller x y) x))
(constraint (<= (smaller x y) y))
(constraint (= (+ (bigger x y) (smaller x y)) (+ x y)))
(check-synth)
"""


@pytest.fixture
def multi_file(tmp_path):
    path = tmp_path / "multi.sl"
    path.write_text(MULTI_SL)
    return str(path)


class TestMultiFunctionCli:
    def test_multi_problem_prints_all_define_funs(self, tmp_path, capsys):
        path = tmp_path / "multi.sl"
        path.write_text(MULTI_SL)
        code = main([str(path), "--timeout", "60"])
        out = capsys.readouterr().out
        assert code == 0
        assert "(define-fun f ((x Int)) Int" in out
        assert "(define-fun g ((x Int)) Int" in out

    def test_multi_problem_trace_and_smt_corpus(self, multi_file, tmp_path,
                                                capsys):
        corpus = tmp_path / "corpus"
        code = main([multi_file, "--timeout", "60", "--trace",
                     "--smt-corpus", str(corpus)])
        assert code == 0
        assert "subproblem tree:" in capsys.readouterr().err
        assert list(corpus.glob("*.smtq.jsonl"))

    def test_multi_problem_stats_line_matches_single(self, multi_file,
                                                     max2_file, capsys):
        import re

        line = re.compile(
            r"; solver=dryadsynth time=[0-9.]+s timed_out=False "
            r"stats=SynthesisStats\(.*\)"
        )
        for path in (max2_file, multi_file):
            assert main([path, "--timeout", "60", "--stats"]) == 0
            assert line.fullmatch(capsys.readouterr().err.strip())

    def test_multi_problem_deadline_prints_timeout(self, tmp_path, capsys):
        path = tmp_path / "coupled.sl"
        path.write_text(COUPLED_SL)
        code = main([str(path), "--timeout", "0.3"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "timeout"

    def test_explain_runs_a_multi_function_problem(self, multi_file, capsys):
        code = main(["explain", multi_file, "--timeout", "60"])
        captured = capsys.readouterr()
        assert code == 0
        assert ": solved" in captured.err
        assert "subproblem tree:" in captured.out

    def test_trace_flag_prints_events(self, max2_file, capsys):
        code = main([max2_file, "--timeout", "60", "--trace"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("(define-fun max2")
        assert "subproblem tree:" in captured.err
        assert "deduction rules" in captured.err

    def test_trace_matches_explain_of_the_span_dump(self, max2_file, tmp_path,
                                                     capsys):
        spans = str(tmp_path / "max2.spans.jsonl")
        code = main([max2_file, "--timeout", "60", "--trace",
                     "--spans-out", spans])
        assert code == 0
        trace_report = capsys.readouterr().err
        assert main(["explain", spans]) == 0
        explain_report = capsys.readouterr().out
        assert explain_report.strip()
        assert explain_report.strip() in trace_report


UNSAT_HEIGHT_SL = """
(set-logic LIA)
(synth-fun f ((a Int) (b Int) (c Int) (d Int)) Int)
(declare-var a Int)
(declare-var b Int)
(declare-var c Int)
(declare-var d Int)
(constraint (>= (f a b c d) a))
(constraint (>= (f a b c d) b))
(constraint (>= (f a b c d) c))
(constraint (>= (f a b c d) d))
(constraint (or (= (f a b c d) a) (= (f a b c d) b)
                (= (f a b c d) c) (= (f a b c d) d)))
(check-synth)
"""


class TestBatch:
    def _suite_dir(self, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "max2.sl").write_text(MAX2_SL)
        (suite / "multi.sl").write_text(MULTI_SL)
        return suite

    def _run(self, argv, capsys):
        code = main(["batch", "--no-cache"] + argv)
        captured = capsys.readouterr()
        import json

        records = [json.loads(line) for line in captured.out.splitlines()]
        return code, records, captured.err

    def test_serial_batch_over_directory(self, tmp_path, capsys):
        suite = self._suite_dir(tmp_path)
        code, records, err = self._run(
            [str(suite), "--timeout", "30"], capsys
        )
        assert code == 0
        assert sorted(r["name"] for r in records) == ["max2", "multi"]
        assert all(r["status"] == "solved" for r in records)
        assert "batch done: 2/2 solved" in err

    def test_parallel_matches_serial_outcomes(self, tmp_path, capsys):
        suite = self._suite_dir(tmp_path)
        code1, serial, _ = self._run(
            [str(suite), "--timeout", "30", "--jobs", "1"], capsys
        )
        code2, par, _ = self._run(
            [str(suite), "--timeout", "30", "--jobs", "2"], capsys
        )
        assert code1 == code2 == 0
        outcomes = lambda rs: {r["name"]: r["status"] for r in rs}
        assert outcomes(serial) == outcomes(par)

    def test_jsonl_written_to_out_file(self, tmp_path, capsys):
        import json

        suite = self._suite_dir(tmp_path)
        out = tmp_path / "results.jsonl"
        code = main(
            ["batch", "--no-cache", str(suite), "--timeout", "30",
             "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert all("fingerprint" in json.loads(line) for line in lines)

    def test_cache_reused_across_invocations(self, tmp_path, capsys):
        suite = self._suite_dir(tmp_path)
        cache = tmp_path / "cache"
        argv = ["batch", str(suite), "--timeout", "30", "--cache", str(cache)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        captured = capsys.readouterr()
        import json

        records = [json.loads(l) for l in captured.out.splitlines()]
        assert all(r["from_cache"] for r in records)
        assert "cache hits=2 misses=0" in captured.err

    def test_missing_path_errors(self, capsys):
        code = main(["batch", "/nonexistent/suite"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestBatchServeTelemetry:
    def test_endpoints_scrape_mid_run(self, tmp_path, capsys):
        import json
        import socket
        import threading
        import time
        import urllib.request

        suite = tmp_path / "suite"
        suite.mkdir()
        for i in range(3):
            (suite / f"p{i}.sl").write_text(MAX2_SL)
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        out = tmp_path / "results.jsonl"
        exit_code = {}

        def run():
            exit_code["value"] = main([
                "batch", str(suite), "--no-cache",
                "--solver", "debug-sleep@1.0", "--jobs", "1",
                "--timeout", "10", "--serve-telemetry", str(port),
                "--out", str(out),
            ])

        thread = threading.Thread(target=run)
        thread.start()
        base = f"http://127.0.0.1:{port}"

        def fetch(path):
            with urllib.request.urlopen(base + path, timeout=2.0) as resp:
                return resp.status, resp.read().decode()

        try:
            health = None
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                try:
                    health = fetch("/healthz")
                    break
                except OSError:
                    time.sleep(0.05)
            assert health is not None and health[0] == 200
            assert json.loads(health[1])["status"] == "ok"

            status, jobs_body = fetch("/jobs")
            payload = json.loads(jobs_body)
            assert status == 200
            assert payload["total"] == 3
            # Scraped mid-run: the batch (3 x 1s on one worker) is not done.
            assert any(
                j["state"] in ("queued", "running", "retrying")
                for j in payload["jobs"]
            )

            status, metrics = fetch("/metrics")
            assert status == 200
            assert "# TYPE repro_pool_workers_alive gauge" in metrics
            assert "repro_pool_jobs_running" in metrics
        finally:
            thread.join(timeout=30)
        assert exit_code["value"] == 0
        # The server dies with the batch.
        with pytest.raises(OSError):
            fetch("/healthz")
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == 3


    def test_telemetry_url_line_is_machine_readable(self, tmp_path, capsys):
        """--serve-telemetry 0 must print the resolved URL, not port 0."""
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "p0.sl").write_text(MAX2_SL)
        out = tmp_path / "results.jsonl"
        exit_code = main([
            "batch", str(suite), "--no-cache",
            "--solver", "debug-solve", "--jobs", "1",
            "--timeout", "10", "--serve-telemetry", "0",
            "--out", str(out),
        ])
        assert exit_code == 0
        stderr = capsys.readouterr().err
        url_lines = [
            line for line in stderr.splitlines()
            if line.startswith("TELEMETRY_URL=")
        ]
        assert len(url_lines) == 1
        url = url_lines[0].split("=", 1)[1]
        assert url.startswith("http://127.0.0.1:")
        port = int(url.rsplit(":", 1)[1])
        assert port != 0


class TestServeCli:
    def test_serve_daemon_submits_drains_and_persists(self, tmp_path):
        import json
        import signal
        import subprocess
        import sys
        import time
        import urllib.request

        results = tmp_path / "results.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--jobs", "1", "--solver", "debug-solve", "--timeout", "10",
             "--results-out", str(results)],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("SERVE_URL="), line
            url = line.split("=", 1)[1]
            request = urllib.request.Request(
                url + "/v1/jobs",
                data=json.dumps({"problem": "p", "name": "one"}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=10.0) as response:
                serve_id = json.loads(response.read().decode())["id"]
            deadline = time.monotonic() + 30
            state = None
            while time.monotonic() < deadline:
                with urllib.request.urlopen(
                    f"{url}/v1/jobs/{serve_id}", timeout=10.0
                ) as response:
                    state = json.loads(response.read().decode())["state"]
                if state == "done":
                    break
                time.sleep(0.05)
            assert state == "done"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        records = [
            json.loads(line) for line in results.read_text().splitlines()
        ]
        assert [record["name"] for record in records] == ["one"]
        assert records[0]["state"] == "done"


class TestPostmortemCli:
    def _crash_batch(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "max2.sl").write_text(MAX2_SL)
        flights = tmp_path / "flights"
        code = main(["batch", str(suite), "--no-cache",
                     "--solver", "debug-exit@13", "--retries", "0",
                     "--timeout", "5", "--flight-dir", str(flights),
                     "--out", str(tmp_path / "results.jsonl")])
        capsys.readouterr()
        assert code == 1
        journals = sorted(flights.glob("*.flight.jsonl"))
        assert len(journals) == 1
        return journals[0]

    def test_renders_report_from_crashed_batch(self, tmp_path, capsys):
        journal = self._crash_batch(tmp_path, capsys)
        assert main(["postmortem", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "post-mortem:" in out
        assert "job.start" in out
        assert "debug-exit@13" in out

    def test_json_flag_emits_payload(self, tmp_path, capsys):
        import json

        journal = self._crash_batch(tmp_path, capsys)
        assert main(["postmortem", "--json", str(journal)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["name"] == "max2"
        assert payload["notes"]

    def test_tail_zero_lists_nothing_and_negative_is_rejected(
            self, tmp_path, capsys):
        from repro import obs
        from repro.obs.flight import FlightRecorder

        journal = str(tmp_path / "ticks.flight.jsonl")
        flight = FlightRecorder(journal, meta={"job_id": "ticks"})
        with obs.recording() as recorder:
            recorder.sink = flight
            for i in range(7):
                obs.event("tick", i=i)
        assert main(["postmortem", "--tail", "0", journal]) == 0
        out = capsys.readouterr().out
        assert "recorded: 0 span(s), 7 event(s)" in out
        assert "event(s):" not in out  # no "last N event(s):" listing
        with pytest.raises(SystemExit) as exc:
            main(["postmortem", "--tail", "-2", journal])
        assert exc.value.code == 2
        assert "--tail must be >= 0" in capsys.readouterr().err

    def test_missing_journal_errors(self, tmp_path, capsys):
        code = main(["postmortem", str(tmp_path / "absent.flight.jsonl")])
        assert code == 2
        assert "error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def two_span_dumps(tmp_path_factory):
    """Two span dumps of the same real problem (for the diff CLI)."""
    directory = tmp_path_factory.mktemp("dumps")
    path = directory / "max2.sl"
    path.write_text(MAX2_SL)
    dumps = []
    for label in ("a", "b"):
        dump = directory / f"run_{label}.jsonl"
        assert main([str(path), "--timeout", "5",
                     "--spans-out", str(dump)]) == 0
        dumps.append(str(dump))
    return dumps


class TestDiffCli:
    def test_diff_of_two_real_runs(self, two_span_dumps, capsys):
        run_a, run_b = two_span_dumps
        capsys.readouterr()
        assert main(["diff", run_a, run_b]) == 0
        out = capsys.readouterr().out
        assert "run diff:" in out
        assert "top node movers" in out
        assert "attribution check" in out

    def test_diff_json_partitions_exactly(self, two_span_dumps, capsys):
        import json

        run_a, run_b = two_span_dumps
        capsys.readouterr()
        assert main(["diff", run_a, run_b, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro-run-diff/1"
        assert payload["attributed_delta"] == pytest.approx(
            payload["total_delta"], abs=1e-6  # both rounded to 6 places
        )

    def test_missing_file_errors(self, two_span_dumps, capsys):
        assert main(["diff", two_span_dumps[0], "/nope.jsonl"]) == 2
        assert "error" in capsys.readouterr().err
