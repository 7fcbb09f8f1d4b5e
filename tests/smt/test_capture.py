"""SMT query capture/replay: round-trip fidelity and divergence detection.

Satellite contract: a pristine corpus replays with zero divergences; a
corrupted entry, a tampered status, and a tampered model each produce a
distinct non-zero ``dryadsynth smt-replay`` exit code with a readable
report.
"""

import json

import pytest

from repro.bench.runner import make_solver
from repro.smt import capture
from repro.sygus.parser import parse_sygus_text

from tests.obs.test_forensics import MAX2


@pytest.fixture()
def corpus(tmp_path):
    """Capture a real max2 run into a corpus directory."""
    directory = str(tmp_path / "corpus")
    problem = parse_sygus_text(MAX2, "max2")
    with capture.capturing(directory, "max2"):
        outcome = make_solver("dryadsynth", 5.0).synthesize(problem)
    assert outcome.solution is not None
    return directory


def _corpus_file(directory):
    files = capture.corpus_files(directory)
    assert len(files) == 1
    return files[0]


def _rewrite(path, mutate):
    """Apply ``mutate(entry) -> entry-or-None`` to one sat entry."""
    with open(path) as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    done = False
    out = []
    for record in lines:
        if not done and record.get("status") == "sat":
            record = mutate(record)
            done = True
        out.append(record)
    assert done, "corpus must contain a sat entry to tamper with"
    with open(path, "w") as handle:
        for record in out:
            handle.write(json.dumps(record) + "\n")


class TestRoundTrip:
    def test_pristine_corpus_replays_with_zero_divergences(self, corpus):
        """Acceptance: every query status and model reproduces standalone."""
        report = capture.replay_corpus(corpus)
        assert report.entries > 0
        assert report.ok
        assert report.divergences == []
        rendered = capture.render_report(report)
        assert "zero divergences" in rendered
        assert "p50=" in rendered and "p99=" in rendered
        assert report.pivots > 0
        assert f"  simplex pivots {report.pivots}\n" in rendered
        assert report.decisions > 0 and report.propagations > 0
        assert (
            f"  sat conflicts {report.conflicts} decisions {report.decisions}"
            f" propagations {report.propagations}\n"
        ) in rendered

    def test_cli_single_run_captures_and_replays(self, tmp_path, capsys):
        from repro.cli import main

        sl = tmp_path / "max2.sl"
        sl.write_text(MAX2)
        directory = str(tmp_path / "corpus")
        assert main([str(sl), "--smt-corpus", directory]) == 0
        capsys.readouterr()
        assert main(["smt-replay", directory]) == 0
        assert "zero divergences" in capsys.readouterr().out

    def test_aborted_captures_are_skipped_not_diverged(self, corpus, capsys):
        """Deadline/budget aborts are capture-run artifacts: skipped on replay."""
        from repro.cli import main

        def abort(entry):
            entry["status"] = "deadline-exceeded"
            entry.pop("model", None)
            entry.pop("model_sig", None)
            return entry

        _rewrite(_corpus_file(corpus), abort)
        report = capture.replay_corpus(corpus)
        assert report.skipped == 1
        assert report.ok
        rendered = capture.render_report(report)
        assert "skipped 1 aborted capture(s)" in rendered
        assert main(["smt-replay", corpus]) == 0
        assert "skipped 1 aborted" in capsys.readouterr().out

    def test_entries_record_budget_and_signature(self, corpus):
        _, entries = capture.read_corpus_file(_corpus_file(corpus))
        assert entries
        for _lineno, entry in entries:
            assert "max_rounds" in entry["budget"]
            assert "lia_node_budget" in entry["budget"]
            if entry.get("model") is not None:
                assert entry["model_sig"] == capture.model_signature(
                    entry["model"]
                )


class TestDivergences:
    def test_corrupt_entry_is_exit_3(self, corpus, capsys):
        from repro.cli import main

        path = _corpus_file(corpus)
        with open(path) as handle:
            lines = handle.readlines()
        lines[1] = "{this is not json\n"
        with open(path, "w") as handle:
            handle.writelines(lines)
        assert main(["smt-replay", corpus]) == 3
        out = capsys.readouterr().out
        assert "DIVERGENCES" in out
        assert "[corrupt]" in out

    def test_status_tamper_is_exit_4(self, corpus, capsys):
        from repro.cli import main

        def flip_status(entry):
            entry["status"] = "unsat"
            entry.pop("model", None)
            entry.pop("model_sig", None)
            return entry

        _rewrite(_corpus_file(corpus), flip_status)
        assert main(["smt-replay", corpus]) == 4
        out = capsys.readouterr().out
        assert "[status]" in out
        assert "captured unsat, replayed sat" in out

    def test_model_tamper_is_exit_5(self, corpus, capsys):
        from repro.cli import main

        def poison_model(entry):
            name = sorted(entry["model"])[0]
            entry["model"][name] = 12345  # model_sig now disagrees
            return entry

        _rewrite(_corpus_file(corpus), poison_model)
        assert main(["smt-replay", corpus]) == 5
        out = capsys.readouterr().out
        assert "[model]" in out
        assert "model_sig" in out

    def test_corrupt_outranks_status_across_files(self, corpus, tmp_path, capsys):
        """Exit-code precedence: corrupt > status when both diverge."""
        from repro.cli import main

        _rewrite(_corpus_file(corpus), lambda e: dict(e, status="unsat"))
        broken = tmp_path / "corpus" / "zzz.smtq.jsonl"
        broken.write_text("not json at all\n")
        assert main(["smt-replay", corpus]) == 3
        capsys.readouterr()

    def test_missing_corpus_is_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["smt-replay", str(tmp_path / "nowhere")]) == 2
        assert "error" in capsys.readouterr().err


class TestSharedMemoReplay:
    def test_repeated_query_answers_from_the_shared_memo(self, tmp_path):
        """One QueryMemo over every fresh replay solver: a query repeated
        across two corpus files answers from the memo, and the answer is
        still checked against the captured status and model."""
        from repro.lang import add, and_, ge, int_var, le
        from repro.smt import SmtSolver
        from repro.smt.memo import QueryMemo

        x, y = int_var("x"), int_var("y")
        directory = str(tmp_path / "corpus")
        for name in ("alpha", "beta"):
            with capture.capturing(directory, name):
                solver = SmtSolver()
                solver.add(and_(ge(add(x, y), 5), le(x, 3), le(y, 4)))
                assert solver.solve().model is not None
        memo = QueryMemo()
        report = capture.replay_corpus(directory, memo=memo)
        assert report.files == 2
        assert report.entries == 2
        assert report.divergences == []
        assert memo.hits >= 1
