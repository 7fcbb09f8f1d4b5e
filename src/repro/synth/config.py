"""Configuration knobs shared by the synthesis engines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass
class SynthConfig:
    """Tunable parameters of the cooperative synthesizer.

    The defaults mirror DryadSynth's behaviour scaled to this repository's
    in-process benchmarks: coefficient magnitudes are searched in widening
    rounds (the paper's implementation bounds decision-tree coefficients the
    same way), heights are enumerated from 1 upward, and every engine
    respects a wall-clock deadline.
    """

    #: Maximum syntax-tree height the enumerative engine will try.
    max_height: int = 4

    #: Bound on decision-tree coefficients ``c_i``.
    coeff_bound: int = 2

    #: Widening schedule for the constant terms ``d_i``.
    const_bounds: Tuple[int, ...] = (1, 10, 100)

    #: Wall-clock budget in seconds (None = unlimited).
    timeout: Optional[float] = None

    #: Per-(node, height) time slice inside the cooperative loop, so a single
    #: expensive fixed-height run cannot starve the other subproblems (the
    #: sequential stand-in for the paper's per-height threads).
    enum_slice: Optional[float] = 30.0

    #: Maximum CEGIS iterations per fixed-height run.
    max_cegis_rounds: int = 40

    #: Maximum number of Type-A subproblems generated per divide step.
    max_subproblems: int = 6

    #: Enable the divide-and-conquer splitter.
    enable_divide: bool = True

    #: Enable the deductive component.
    enable_deduction: bool = True

    #: Node budget for the LIA branch-and-bound per SMT check.
    lia_node_budget: int = 20000

    #: Shrink the final solution with verification-preserving rewrites
    #: (bounded number of extra SMT checks; see repro.synth.minimize).
    minimize_solutions: bool = True

    #: SMT-check budget for the minimisation pass.
    minimize_budget: int = 16
