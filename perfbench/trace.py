"""Benchmark-side layer tracing around the program's public entry points.

A :class:`Tracer` replaces each target function or method with a wrapper
that records one span per call (name, start, end, parent) plus a few work
counters, and keeps every span in memory until the pass ends.  Nothing
inside ``src/`` is modified: the wrappers are installed at run time, in the
fresh process that runs one traced pass.

Functions imported by name elsewhere (``check_lia`` into the SMT driver,
``fixed_height`` and ``propose_splits`` into the cooperative loop) are
patched in every loaded module that holds the original object.  A target
that no longer exists is skipped with a warning, so a refactor of the
program never breaks the untraced measurement.

Self time of a span is its duration minus its children's durations.  The
pass itself is the root span; its self time is the time no layer claimed,
reported as ``unattributed``.  The per-layer self times therefore add up to
the pass wall by construction, and :func:`attribute` re-derives them from
the written span records so the identity is checked, not assumed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

ROOT = "pass"
UNATTRIBUTED = "unattributed"

#: Largest relative gap allowed between the summed self times and the pass
#: wall; anything above it means spans overlap or escape their parent.
ATTRIBUTION_TOLERANCE = 1e-6


class Tracer:
    """In-memory span recorder with per-layer counters for one pass."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]``; index 0 is the pass root.
        self.spans: List[list] = [[ROOT, None, None, None]]
        self._stack: List[int] = [0]
        self.counts: Dict[str, float] = defaultdict(float)

    def start(self) -> None:
        self.spans[0][1] = time.perf_counter()

    def finish(self) -> float:
        """Close the pass root; returns the pass wall in seconds."""
        self.spans[0][2] = time.perf_counter()
        return self.spans[0][2] - self.spans[0][1]

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper recording a ``name`` span around every call of ``fn``.

        ``before(args)`` runs inside the span and its value is handed to
        ``after(args, kwargs, result, state)``, which runs once the span is
        closed and only when ``fn`` returned normally.
        """
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter
        calls_key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), None, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            counts[calls_key] += 1
            state = before(args) if before is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if after is not None:
                after(args, kwargs, result, state)
            return result

        return wrapper

    def write(self, path: str, workload: str, pass_index: int) -> None:
        """Append this pass's spans to ``path`` (times relative to the pass)."""
        origin = self.spans[0][1]
        with open(path, "a") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "workload": workload,
                    "pass": pass_index,
                }) + "\n")


def attribute(spans: Sequence[Dict]) -> Dict[str, float]:
    """Self seconds per span name for one pass's span records.

    The root's self time is reported as ``unattributed``.  Raises
    ``ValueError`` when a child lies outside its parent or the self times
    do not add up to the root's duration.
    """
    by_id = {span["id"]: span for span in spans}
    selfs: Dict[str, float] = defaultdict(float)
    root = None
    for span in spans:
        duration = span["end"] - span["start"]
        name = UNATTRIBUTED if span["parent"] is None else span["name"]
        selfs[name] += duration
        if span["parent"] is None:
            root = span
            continue
        parent = by_id[span["parent"]]
        if span["start"] < parent["start"] or span["end"] > parent["end"]:
            raise ValueError(f"span {span['id']} escapes its parent")
        parent_name = (
            UNATTRIBUTED if parent["parent"] is None else parent["name"]
        )
        selfs[parent_name] -= duration
    if root is None:
        raise ValueError("no root span")
    wall = root["end"] - root["start"]
    total = sum(selfs.values())
    if abs(total - wall) > ATTRIBUTION_TOLERANCE * max(wall, 1e-9):
        raise ValueError(f"self times sum to {total!r}, pass wall is {wall!r}")
    return dict(selfs)


def read_spans(path: str) -> Dict[tuple, List[Dict]]:
    """Span records of a ``perfbench-spans.jsonl`` file, per (workload, pass)."""
    passes: Dict[tuple, List[Dict]] = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            passes[(record["workload"], record["pass"])].append(record)
    return dict(passes)


# ---------------------------------------------------------------------------
# Wrap targets
# ---------------------------------------------------------------------------


def _resolve(module_name: str, path: str):
    module = importlib.import_module(module_name)
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _patch(owner, attr: str, original, wrapper) -> None:
    """Install ``wrapper`` on ``owner`` and on every module holding ``original``."""
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace or not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(namespace.items()):
            if value is original:
                setattr(module, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point; a missing one is skipped with a warning."""
    counts = tracer.counts

    def count_if(key: str, predicate: Callable) -> Callable:
        def after(args, kwargs, result, state):
            if predicate(result):
                counts[key] += 1
        return after

    def smt_before(args):
        stats = args[0].stats
        return stats.rounds, stats.theory_conflicts, stats.lemmas

    def smt_after(args, kwargs, result, state):
        stats = args[0].stats
        counts["smt.rounds"] += stats.rounds - state[0]
        counts["smt.theory_conflicts"] += stats.theory_conflicts - state[1]
        counts["smt.lemmas"] += stats.lemmas - state[2]

    def sat_before(args):
        return args[0].num_conflicts, args[0].num_decisions

    def sat_after(args, kwargs, result, state):
        counts["sat.conflicts"] += args[0].num_conflicts - state[0]
        counts["sat.decisions"] += args[0].num_decisions - state[1]

    def lia_after(args, kwargs, result, state):
        if result[0]:
            counts["lia.feasible"] += 1
        # The DPLL(T) driver's core minimisation is the only caller that
        # passes this tiny node budget (``SmtSolver._minimize_core``).
        max_nodes = args[1] if len(args) > 1 else kwargs.get("max_nodes")
        if max_nodes == 60:
            counts["lia.core_min_calls"] += 1

    def splits_after(args, kwargs, result, state):
        counts["divide.splits"] += len(result)

    targets = [
        ("coop", "repro.synth.cooperative", "CooperativeSynthesizer.synthesize",
         None, None),
        ("deduction", "repro.synth.deduction", "Deducer.deduct", None,
         count_if("deduction.solved", lambda r: r.solution is not None)),
        ("divide", "repro.synth.divide", "propose_splits", None, splits_after),
        ("enum", "repro.synth.fixed_height", "fixed_height", None,
         count_if("enum.hits", lambda r: r is not None)),
        ("minimize", "repro.synth.minimize", "minimize_solution", None, None),
        ("verify", "repro.sygus.problem", "SygusProblem.verify", None, None),
        ("compile", "repro.lang.compile", "compile_term", None, None),
        ("compile", "repro.lang.compile", "compile_spec", None, None),
        ("simplify", "repro.lang.simplify", "simplify", None, None),
        ("smt", "repro.smt.solver", "SmtSolver.solve", smt_before, smt_after),
        ("sat", "repro.smt.sat", "SatSolver.solve", sat_before, sat_after),
        ("lia", "repro.smt.branch_bound", "check_lia", None, lia_after),
        ("simplex", "repro.smt.simplex", "Simplex.check", None, None),
    ]
    for name, module_name, path, before, after in targets:
        try:
            owner, attr, original = _resolve(module_name, path)
        except (ImportError, AttributeError) as exc:
            print(f"perfbench: warning: cannot trace {module_name}.{path}: {exc}",
                  file=sys.stderr)
            continue
        _patch(owner, attr, original, tracer.wrap(name, original, before, after))
