"""Reproduction of "Reconciling Enumerative and Deductive Program Synthesis"
(Huang, Qiu, Shen, Wang — PLDI 2020): the DryadSynth cooperative SyGuS
solver for conditional linear integer arithmetic, together with every
substrate it depends on (a from-scratch QF_LIA SMT solver), the baselines it
is evaluated against, and the benchmark harness that regenerates the paper's
figures and table.

Quick start::

    from repro import solve_sygus, parse_sygus_text

    problem = parse_sygus_text(open("max2.sl").read())
    outcome = solve_sygus(problem, timeout=30)
    print(outcome.solution.define_fun())

Every solver takes one setting, its wall-clock budget:
``Solver(timeout=None).synthesize(problem)`` returns a
:class:`SynthesisOutcome`.
"""

from typing import Optional

from repro.sygus.parser import parse_sygus_file, parse_sygus_text
from repro.sygus.problem import InvariantProblem, Solution, SygusProblem, SynthFun
from repro.synth import (
    CooperativeSynthesizer,
    HeightEnumerationSynthesizer,
    SynthesisOutcome,
)

__version__ = "1.0.0"


def solve_sygus(problem, timeout: Optional[float] = None) -> SynthesisOutcome:
    """Solve a parsed SyGuS problem with DryadSynth.

    A single-function problem runs the cooperative synthesizer; a
    multi-function one runs its multi-function extension.
    """
    from repro.service.jobs import build_solver

    return build_solver("dryadsynth", problem, timeout).synthesize(problem)


__all__ = [
    "__version__",
    "parse_sygus_file",
    "parse_sygus_text",
    "InvariantProblem",
    "Solution",
    "SygusProblem",
    "SynthFun",
    "CooperativeSynthesizer",
    "HeightEnumerationSynthesizer",
    "SynthesisOutcome",
    "solve_sygus",
]
