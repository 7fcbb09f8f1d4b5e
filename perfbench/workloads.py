"""What each workload runs, and the digests that pin those inputs.

The problem sets are cut from the generated suite (``full_suite()``) by
measured solve time on the reference machine (see README.md):

- ``suite-2s``: every problem that solves well inside a 2 s budget (the
  slowest takes about 0.6 s) -- the typical request.
- ``frontier-10s``: the four slow problems that do solve within 10 s
  (about 1.3 s to 6 s each) -- the enumeration and SMT hot path.
- ``frontier-open``: the three problems that time out or raise at 10 s.
  Not part of the measured set (``BENCHMARK.json`` lists only workloads on
  which no operation fails); run it by name to see their outcome classes.

``smt-replay`` replays the committed ``smt_corpus/`` minus the two files
whose fresh-solver replay alone takes about 25 s (``array_search_2`` and
``clamp``), so that two replay passes fit in one run; ``frontier-10s``
still runs those two problems live.

``inputs.json`` pins a sha256 per workload: of the SyGuS text of its
problems, and of its corpus files' bytes.  A change that moves a
workload's inputs therefore fails the digest check instead of reporting.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, List, Sequence, Tuple

SUITE = "suite-2s"
FRONTIER = "frontier-10s"
OPEN = "frontier-open"
REPLAY = "smt-replay"
SERVE = "serve-cache"

WORKLOADS = (SUITE, FRONTIER, REPLAY, SERVE, OPEN)

FRONTIER_SOLVED = ("range-init-64", "step2-64", "clamp", "array_search_2")
FRONTIER_OPEN = ("array_search_3", "qm-max3", "qm-min3")
REPLAY_EXCLUDED = ("array_search_2", "clamp")

#: Per-problem budget in seconds.
BUDGET = {SUITE: 2.0, FRONTIER: 10.0, OPEN: 10.0, SERVE: 2.0}

#: ``--smoke`` inputs: a few fast ones per workload, chosen to include an
#: answer outside its grammar (``pbe-double``) and an invariant problem.
SMOKE = {
    SUITE: ("max2", "pbe-double", "count-up-8", "qm-clip0"),
    FRONTIER: ("range-init-64",),
    OPEN: ("qm-min3",),
    REPLAY: ("max2", "abs", "count-up-8"),
    SERVE: ("max2", "pbe-double", "count-up-8", "qm-clip0"),
}

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "inputs.json")


def problem_names(workload: str) -> List[str]:
    """The workload's problem names, in suite order."""
    from repro.bench.suite import full_suite

    names = [benchmark.name for benchmark in full_suite()]
    if workload == FRONTIER:
        return [n for n in names if n in FRONTIER_SOLVED]
    if workload == OPEN:
        return [n for n in names if n in FRONTIER_OPEN]
    excluded = set(FRONTIER_SOLVED) | set(FRONTIER_OPEN)
    return [n for n in names if n not in excluded]


def build_problems(names: Sequence[str]) -> Dict[str, object]:
    from repro.bench.suite import full_suite

    by_name = {benchmark.name: benchmark for benchmark in full_suite()}
    return {name: by_name[name].problem() for name in names}


def problems_digest(problems: Dict[str, object]) -> str:
    from repro.sygus.serializer import problem_to_sygus

    digest = hashlib.sha256()
    for name, problem in problems.items():
        digest.update(f"{name}\n{problem_to_sygus(problem)}\n".encode())
    return digest.hexdigest()


def corpus_paths(root: str) -> List[str]:
    """The replayed corpus files, sorted by name."""
    from repro.smt.capture import corpus_files

    excluded = {f"{name}.smtq.jsonl" for name in REPLAY_EXCLUDED}
    return [
        path for path in corpus_files(os.path.join(root, "smt_corpus"))
        if os.path.basename(path) not in excluded
    ]


def files_digest(paths: Sequence[str]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            data = handle.read()
        digest.update(f"{os.path.basename(path)}\n{len(data)}\n".encode())
        digest.update(data)
    return digest.hexdigest()


def pinned_digests() -> Dict[str, str]:
    with open(PINS) as handle:
        return json.load(handle)["sha256"]


def seeded_order(items: Sequence, seed: int, *salt) -> List:
    """``items`` shuffled by a generator seeded with ``(seed, *salt)``."""
    order = list(items)
    random.Random("/".join(str(part) for part in (seed, *salt))).shuffle(order)
    return order


def smoke_subset(workload: str, items: Sequence[str]) -> List[str]:
    """The ``--smoke`` inputs among ``items`` (names or corpus paths)."""
    wanted = set(SMOKE[workload])
    if workload == REPLAY:
        return [p for p in items
                if os.path.basename(p)[: -len(".smtq.jsonl")] in wanted]
    return [name for name in items if name in wanted]


def load_inputs(root: str, workload: str) -> Tuple[List, Dict[str, object], str]:
    """``(items, problems, digest)`` for a workload.

    ``items`` are problem names, or corpus file paths for ``smt-replay``;
    ``problems`` maps every problem name to its built problem (empty for
    replay).
    """
    if workload == REPLAY:
        paths = corpus_paths(root)
        return paths, {}, files_digest(paths)
    names = problem_names(SUITE if workload == SERVE else workload)
    problems = build_problems(names)
    return names, problems, problems_digest(problems)
