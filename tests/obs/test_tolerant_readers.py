"""One torn-tail tolerance contract, three append-only stores.

Span dumps, flight journals and the sampler's ``.collapsed`` export share
one line scanner (:func:`repro.obs.export.scan_lines`) and its recovery
contract: a writer killed mid-append (SIGKILL, hard deadline, power loss)
leaves a truncated final line, possibly torn in the middle of a multi-byte
UTF-8 character, and the reader must drop exactly that line while
recovering every complete record before it.  A corrupt *interior* line
means damage, not an interrupted append: span dumps and ``.collapsed``
files raise, and the post-mortem reader counts it in ``"corrupt"`` (its
loader below surfaces that count as the same ``ValueError``).  This test
drives all three loaders through one parametrized harness so the contract
cannot drift per store.
"""

import json

import pytest

from repro.obs.export import read_spans_jsonl
from repro.obs.flight import read_postmortem
from repro.obs.sampler import load_collapsed


def _event_record(index):
    # The non-ASCII name puts multi-byte UTF-8 on every line
    # (ensure_ascii=False keeps it unescaped), so the torn-tail case can
    # cut inside a character.
    return json.dumps(
        {"event": {"name": f"bench-é-{index}", "elapsed": index}},
        ensure_ascii=False,
    )


def _collapsed_record(index):
    return f"repro/a.py:main;repro/b.py:solvé_{index} {index + 1}"


def _load_spans_store(path):
    return read_spans_jsonl(path)[1]


def _load_journal(path):
    postmortem = read_postmortem(path, tail=100)
    if postmortem is None:
        return []
    if postmortem["corrupt"]:
        raise ValueError(f"{postmortem['corrupt']} corrupt interior line(s)")
    return postmortem["events"]


STORES = [
    pytest.param("spans.jsonl", _event_record, _load_spans_store, id="spans"),
    pytest.param(
        "profile.collapsed",
        _collapsed_record,
        lambda path: load_collapsed(path).counts,
        id="collapsed",
    ),
    pytest.param(
        "job.flight.jsonl", _event_record, _load_journal, id="journal"
    ),
]


def _write(path, lines, tail=b""):
    with open(path, "wb") as handle:
        for line in lines:
            handle.write(line.encode("utf-8") + b"\n")
        handle.write(tail)


@pytest.mark.parametrize("filename, make_record, load", STORES)
class TestTolerantReaders:
    def test_full_read(self, tmp_path, filename, make_record, load):
        path = str(tmp_path / filename)
        _write(path, [make_record(i) for i in range(3)])
        assert len(load(path)) == 3

    def test_torn_ascii_tail_dropped(self, tmp_path, filename, make_record,
                                     load):
        path = str(tmp_path / filename)
        torn = make_record(99).encode("utf-8")
        # Cut before any multi-byte character: a plain half-written line.
        _write(path, [make_record(i) for i in range(3)], tail=torn[:5])
        assert len(load(path)) == 3

    def test_torn_mid_multibyte_tail_dropped(self, tmp_path, filename,
                                             make_record, load):
        path = str(tmp_path / filename)
        torn = make_record(99).encode("utf-8")
        # Cut one byte past the first byte of the two-byte "é": the tail is
        # not even decodable, which killed the old text-mode readers.
        cut = torn.index("é".encode("utf-8")) + 1
        tail = torn[:cut]
        with pytest.raises(UnicodeDecodeError):
            tail.decode("utf-8")
        _write(path, [make_record(i) for i in range(3)], tail=tail)
        assert len(load(path)) == 3

    def test_corrupt_interior_line_raises(self, tmp_path, filename,
                                          make_record, load):
        path = str(tmp_path / filename)
        lines = [make_record(0), "{torn interior garbage", make_record(2)]
        if filename.endswith(".collapsed"):
            lines[1] = "no trailing count here"
        _write(path, lines)
        with pytest.raises(ValueError):
            load(path)

    def test_empty_file(self, tmp_path, filename, make_record, load):
        path = str(tmp_path / filename)
        _write(path, [])
        assert len(load(path)) == 0
