"""Benchmark suite, portfolio runner and report generators (Section 7).

The suite substitutes for the SyGuS-Comp 2019 archive: parameterised
families across the paper's three tracks (INV, CLIA, General) spanning the
same difficulty axes — solution height, number of spec conjuncts, number of
variables, and ad-hoc grammar operators.
"""

from repro.bench.suite import (
    Benchmark,
    demo_subset,
    full_suite,
    suite_by_track,
)
from repro.bench.runner import RunResult, SOLVER_NAMES, make_solver, run_suite
from repro.bench import report

__all__ = [
    "Benchmark",
    "full_suite",
    "suite_by_track",
    "RunResult",
    "SOLVER_NAMES",
    "make_solver",
    "run_suite",
    "demo_subset",
    "report",
]
