"""Wall-clock stack sampling profiler (the py-spy/FlameGraph model).

Spans answer "how long was this *instrumented* region open"; the sampler
answers the complementary question — "which *code* was on-CPU (or blocked)
while the wall clock ran" — with no instrumentation at all.  A
:class:`StackSampler` daemon thread wakes ~67 times a second
(:data:`DEFAULT_INTERVAL`), grabs every thread's current frame via
``sys._current_frames()`` and folds the walked stacks into a
:class:`StackProfile` of collapsed-stack counts, the exact format
FlameGraph's ``flamegraph.pl`` and speedscope ingest::

    repro/synth/cegis.py:cegis_loop;repro/smt/solver.py:solve 412

Profiles are cheap, mergeable across the :class:`~repro.service.pool.WorkerPool`
process boundary (they ride fingerprint-neutrally in
``JobResult.telemetry`` next to the span payload), and each sample is
classified against the ambient :class:`~repro.obs.spans.SpanRecorder`:
samples taken while the sampled thread had *no open span* are tallied
separately as **dark** samples — the hot frames ``dryadsynth profile``
names in its dark-time section.

``dryadsynth flame`` renders/exports profiles; :func:`load_collapsed`
reads ``.collapsed`` files back tolerantly (a writer killed mid-append
tears at most the final line, same contract and scanner as the span
dumps: :func:`repro.obs.export.scan_lines`).
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

PROFILE_FORMAT = "repro-profile/1"

#: ~67 Hz: fine enough to catch millisecond-scale phases over a seconds-long
#: run, coarse enough that sampling overhead stays well under 5%.
DEFAULT_INTERVAL = 0.015

#: Stack depth cap: deeper frames are summarized, so a runaway recursion
#: cannot make single samples arbitrarily expensive to record.
MAX_STACK_DEPTH = 64


def _short_path(filename: str) -> str:
    """Shorten an absolute source path to a stable, readable frame prefix.

    Paths inside the ``repro`` package keep their package-relative tail
    (``repro/synth/cegis.py``) so profiles from different checkouts and
    different machines merge; everything else keeps its basename.
    """
    normalized = filename.replace("\\", "/")
    marker = "/repro/"
    index = normalized.rfind(marker)
    if index >= 0:
        return normalized[index + 1:]
    return normalized.rsplit("/", 1)[-1]


def frame_label(code) -> str:
    """One frame's collapsed-stack label (``path:function``).

    Semicolons and whitespace are the format's structural characters, so
    they are rewritten out of the label.
    """
    label = f"{_short_path(code.co_filename)}:{code.co_name}"
    return label.replace(";", ",").replace(" ", "_").replace("\t", "_")


def collapse_frame(frame) -> str:
    """Walk a thread's frame chain into one root→leaf collapsed stack."""
    labels: List[str] = []
    depth = 0
    while frame is not None and depth < MAX_STACK_DEPTH:
        labels.append(frame_label(frame.f_code))
        frame = frame.f_back
        depth += 1
    if frame is not None:
        labels.append("[truncated]")
    labels.reverse()
    return ";".join(labels)


class StackProfile:
    """Collapsed-stack sample counts, mergeable and serializable.

    ``counts`` maps a full collapsed stack (``a;b;c``) to how many samples
    landed there; ``dark`` is the subset taken while the sampled thread had
    no open span (see :meth:`StackSampler._sample`).  Merging adds counts
    key-wise, so profiles combine across workers exactly like metric
    snapshots do.
    """

    __slots__ = ("counts", "dark", "samples", "interval", "duration", "pids")

    def __init__(self, interval: float = DEFAULT_INTERVAL) -> None:
        self.counts: Dict[str, int] = {}
        self.dark: Dict[str, int] = {}
        self.samples = 0
        self.interval = interval
        self.duration = 0.0
        self.pids: List[int] = []

    def record(self, stack: str, dark: bool = False, count: int = 1) -> None:
        if not stack or count <= 0:
            return
        self.counts[stack] = self.counts.get(stack, 0) + count
        if dark:
            self.dark[stack] = self.dark.get(stack, 0) + count
        self.samples += count

    def merge(self, other) -> None:
        """Fold another profile (or its ``to_json`` dict) into this one."""
        if other is None:
            return
        if isinstance(other, dict):
            other = StackProfile.from_json(other)
        for stack, count in other.counts.items():
            self.counts[stack] = self.counts.get(stack, 0) + count
        for stack, count in other.dark.items():
            self.dark[stack] = self.dark.get(stack, 0) + count
        self.samples += other.samples
        self.duration += other.duration
        for pid in other.pids:
            if pid not in self.pids:
                self.pids.append(pid)

    # -- Aggregations ----------------------------------------------------------

    def self_counts(self) -> Dict[str, int]:
        """Per-frame *self* samples: how often a frame was the leaf."""
        frames: Dict[str, int] = {}
        for stack, count in self.counts.items():
            leaf = stack.rsplit(";", 1)[-1]
            frames[leaf] = frames.get(leaf, 0) + count
        return frames

    def total_counts(self) -> Dict[str, int]:
        """Per-frame *total* samples: how often a frame was anywhere on-stack."""
        frames: Dict[str, int] = {}
        for stack, count in self.counts.items():
            for frame in set(stack.split(";")):
                frames[frame] = frames.get(frame, 0) + count
        return frames

    def dark_frames(self, top: int = 5) -> List[Tuple[str, int]]:
        """The hottest leaf frames among samples taken outside any span."""
        frames: Dict[str, int] = {}
        for stack, count in self.dark.items():
            leaf = stack.rsplit(";", 1)[-1]
            frames[leaf] = frames.get(leaf, 0) + count
        ranked = sorted(frames.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:top]

    # -- Serialization ---------------------------------------------------------

    def to_json(self) -> Dict:
        return {
            "format": PROFILE_FORMAT,
            "interval": self.interval,
            "samples": self.samples,
            "duration": round(self.duration, 6),
            "pids": list(self.pids),
            "counts": dict(self.counts),
            "dark": dict(self.dark),
        }

    @staticmethod
    def from_json(data: Dict) -> "StackProfile":
        profile = StackProfile(interval=data.get("interval", DEFAULT_INTERVAL))
        profile.counts = {str(k): int(v) for k, v in
                          (data.get("counts") or {}).items()}
        profile.dark = {str(k): int(v) for k, v in
                        (data.get("dark") or {}).items()}
        profile.samples = int(data.get("samples", sum(profile.counts.values())))
        profile.duration = float(data.get("duration", 0.0))
        profile.pids = [int(p) for p in data.get("pids", [])]
        return profile

    def to_collapsed(self) -> str:
        """FlameGraph/speedscope collapsed-stack text (``stack count`` lines)."""
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return "\n".join(f"{stack} {count}" for stack, count in ranked)


def write_collapsed(profile: StackProfile, path: str) -> None:
    """Write a ``.collapsed`` file (one ``stack count`` line per stack)."""
    text = profile.to_collapsed()
    with open(path, "w") as handle:
        if text:
            handle.write(text + "\n")


def _parse_collapsed(raw: bytes) -> Tuple[str, int]:
    stack, count_text = raw.decode("utf-8").rsplit(" ", 1)
    if not stack:
        raise ValueError("empty stack")
    return stack, int(count_text)


def load_collapsed(path: str) -> StackProfile:
    """Read a ``.collapsed`` file tolerantly.

    Same torn-tail contract as the JSONL stores
    (:func:`repro.obs.export.scan_lines`): a torn final line is dropped; a
    malformed *interior* line raises ``ValueError``.
    """
    from repro.obs.export import scan_lines

    records, _, damaged = scan_lines(path, _parse_collapsed)
    if damaged:
        line, exc = damaged[0]
        raise ValueError(
            f"{path}:{line}: malformed collapsed-stack line"
        ) from exc
    profile = StackProfile()
    for stack, count in records:
        profile.record(stack, count=count)
    return profile


def read_profile_record(path: str) -> Optional[StackProfile]:
    """Extract (and merge) the ``profile`` record(s) from a spans JSONL dump.

    Returns ``None`` when the dump carries no sampled profile — the span
    writers embed one only when the sampler ran.
    """
    from repro.obs.export import read_jsonl

    profile: Optional[StackProfile] = None
    for record in read_jsonl(path):
        data = record.get("profile")
        if not data:
            continue
        if profile is None:
            profile = StackProfile.from_json(data)
        else:
            profile.merge(data)
    return profile


class StackSampler:
    """A daemon-thread wall-clock sampler over ``sys._current_frames()``.

    ``start``/``stop`` are idempotent; the sampler never samples its own
    thread.  When a ``recorder`` is supplied (or an ambient one is
    installed), each sample is classified per sampled thread: **dark** when
    that thread had no span open at sample time — the signal the profile
    report reconciles against the span stream.
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        recorder=None,
        profile: Optional[StackProfile] = None,
    ) -> None:
        self.interval = max(0.001, interval)
        self.profile = profile if profile is not None else StackProfile(interval)
        self._recorder = recorder
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._started_at = 0.0

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "StackSampler":
        if self.running:
            return self
        import os

        if os.getpid() not in self.profile.pids:
            self.profile.pids.append(os.getpid())
        self._stop_event = threading.Event()
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._run, name="repro-stack-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> StackProfile:
        thread = self._thread
        if thread is not None:
            self._stop_event.set()
            thread.join(timeout=2.0)
            self._thread = None
            self.profile.duration += time.monotonic() - self._started_at
        return self.profile

    def __enter__(self) -> "StackSampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        own = threading.get_ident()
        while not self._stop_event.wait(self.interval):
            try:
                self._sample(own)
            except Exception:  # noqa: BLE001 - sampling must never kill the job
                return

    def _active_recorder(self):
        if self._recorder is not None:
            return self._recorder
        from repro import obs

        return obs.active()

    def _sample(self, own_ident: int) -> None:
        recorder = self._active_recorder()
        for ident, frame in sys._current_frames().items():
            if ident == own_ident:
                continue
            stack = collapse_frame(frame)
            if not stack:
                continue
            dark = True
            if recorder is not None:
                dark = not recorder.thread_has_open_span(ident)
            self.profile.record(stack, dark=dark)
