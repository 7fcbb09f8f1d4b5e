"""The paper's primary contribution: cooperative synthesis (DryadSynth).

Submodules:

- :mod:`repro.synth.cegis` — the one CEGIS loop (Section 2.2).
- :mod:`repro.synth.decision_tree` — decision-tree normal form (Figure 5).
- :mod:`repro.synth.encoding` — symbolic fixed-height encodings (Section 5.2).
- :mod:`repro.synth.fixed_height` — Algorithm 2 and height enumeration.
- :mod:`repro.synth.deduction` — deductive rules (Figures 7 and 8).
- :mod:`repro.synth.loop_summary` — fast-trans loop summarisation (Section 6).
- :mod:`repro.synth.divide` — divide-and-conquer strategies (Figure 4).
- :mod:`repro.synth.graph` — the subproblem graph (Section 3.2).
- :mod:`repro.synth.cooperative` — Algorithm 1, the cooperative loop.
- :mod:`repro.synth.portfolio` — solver portfolios; the Section 5.1 height
  race is a :class:`ProcessPortfolio` over ``fixed-height@1..H``.
- :mod:`repro.synth.multi` — the multi-function extension.

Every solver is built as ``Solver(timeout=None)``, the wall-clock budget in
seconds, and answers ``synthesize(problem)`` with a
:class:`SynthesisOutcome`.  The search bounds (heights, coefficient and
constant bounds, CEGIS rounds) are constants of the modules that read them.
"""

from repro.synth.cooperative import CooperativeSynthesizer
from repro.synth.fixed_height import (
    FixedHeightSession,
    HeightEnumerationSynthesizer,
)
from repro.synth.portfolio import ProcessPortfolio
from repro.synth.result import SynthesisOutcome, SynthesisStats

__all__ = [
    "CooperativeSynthesizer",
    "FixedHeightSession",
    "HeightEnumerationSynthesizer",
    "ProcessPortfolio",
    "SynthesisOutcome",
    "SynthesisStats",
]
