"""Golden outputs of the span-stream reports.

``explain``, ``profile`` and ``diff`` render the committed demo-subset
dumps (``bench_dumps/``), and ``postmortem`` renders a flight journal built
through the public recording API.  Each report must match its committed
file under ``tests/obs/golden/`` byte for byte, so a refactor of the
attribution code cannot change a rendered number unnoticed.  A deliberate
output change regenerates the golden file in the same commit.
"""

import os
import re

import pytest

from repro import obs
from repro.cli import main
from repro.obs import forensics
from repro.obs.flight import FlightRecorder, append_kill_record

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
GOLDEN = os.path.join(ROOT, "tests", "obs", "golden")
DUMPS = ["budget2s", "budget5s"]


def _dump(name):
    return os.path.join("bench_dumps", f"{name}.spans.jsonl")


def _golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture
def at_root(monkeypatch):
    """Run from the repo root: ``diff`` prints its input paths verbatim."""
    if not all(os.path.exists(os.path.join(ROOT, _dump(n))) for n in DUMPS):
        pytest.skip("committed bench_dumps/ pair not present")
    monkeypatch.chdir(ROOT)


def _cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("dump", DUMPS)
@pytest.mark.parametrize("command", ["explain", "profile"])
def test_report_of_committed_dump(at_root, capsys, command, dump):
    out = _cli(capsys, command, _dump(dump))
    assert out == _golden(f"{command}_{dump}.txt")


@pytest.mark.parametrize("flag, suffix", [(None, "txt"), ("--json", "json")])
def test_diff_of_committed_pair(at_root, capsys, flag, suffix):
    argv = ["diff"] + ([flag] if flag else []) + [_dump(n) for n in DUMPS]
    out = _cli(capsys, *argv)
    assert out == _golden(f"diff_budget2s_budget5s.{suffix}")


def _journal(path):
    """A dead worker's journal: two graph nodes, forensics, spans, a kill.

    The frontier node ``bbb222`` owns the journal's latest rule, strategy
    and counterexample, so its report is the same whether those fields
    are read per node or journal-wide.
    """
    flight = FlightRecorder(str(path), meta={
        "job_id": "job-7", "name": "max2", "solver": "dryadsynth",
    })
    flight.note("job.start", timeout=2.0)
    with obs.recording() as recorder:
        recorder.sink = flight
        forensics.emit(forensics.GRAPH_NODE, node="aaa111", fun="max2",
                       depth=0)
        with obs.span("deduct", problem="max2", node="aaa111"):
            forensics.emit(forensics.DEDUCT_RULE, rule="match",
                           outcome="failed")
        forensics.emit(forensics.GRAPH_NODE, node="bbb222", fun="g0!max2",
                       parent="aaa111", strategy="fixed-term", depth=1)
        forensics.emit(forensics.DIVIDE_REJECT, node="bbb222",
                       strategy="fixed-term", reason="not-in-grammar")
        with obs.span("enum", problem="max2", node="bbb222", height=2):
            forensics.emit(forensics.DEDUCT_RULE, rule="ite-split",
                           outcome="failed")
            forensics.emit(forensics.CEGIS_CEX, cex='{"x":7,"y":1}',
                           iteration=1, height=2)
    with open(path, "a") as handle:
        handle.write('{"span": {"name": "smt.sol')  # died mid-append
    append_kill_record(str(path), cause="deadline", reason="3.0s over",
                       signal="SIGKILL", exitcode=-9)


def _mask(text):
    text = re.sub(r"worker pid: \d+", "worker pid: PID", text)
    text = re.sub(r"\+\s*\d+\.\d+s", "+T", text)
    return re.sub(r"wall=\d+\.\d+s", "wall=W", text)


def test_postmortem_of_api_built_journal(tmp_path, capsys):
    path = tmp_path / "job-7-attempt1.flight.jsonl"
    _journal(path)
    out = _cli(capsys, "postmortem", str(path))
    assert _mask(out) == _golden("postmortem.txt")


def test_postmortem_payload_keys(tmp_path):
    from repro.obs.flight import read_postmortem

    path = tmp_path / "job-7-attempt1.flight.jsonl"
    _journal(path)
    assert set(read_postmortem(str(path))) == {
        "journal", "pid", "meta", "kill", "notes", "num_spans", "num_events",
        "spans", "events", "truncated", "corrupt", "last", "frontier",
    }
