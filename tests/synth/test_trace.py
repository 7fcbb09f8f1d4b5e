"""The run record of a cooperative run: the ambient span stream.

``dryadsynth --trace`` and ``dryadsynth explain`` render this stream; these
tests read back *how* a problem was solved from it.
"""

from repro import obs
from repro.bench.suite import find_benchmark
from repro.lang import and_, eq, ge, int_var, or_
from repro.lang.sorts import INT
from repro.sygus.grammar import clia_grammar
from repro.sygus.problem import SygusProblem, SynthFun
from repro.synth import CooperativeSynthesizer

x, y = int_var("x"), int_var("y")


def _max2_problem():
    fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
    fx = fun.apply((x, y))
    spec = and_(ge(fx, x), ge(fx, y), or_(eq(fx, x), eq(fx, y)))
    return SygusProblem(fun, spec, (x, y), name="max2")


def _recorded_spans(timeout, problem=None):
    with obs.recording() as recorder:
        outcome = CooperativeSynthesizer(timeout).synthesize(
            problem or _max2_problem()
        )
    assert outcome.solved
    return recorder.spans


class TestCooperativeIntegration:
    def test_trace_captures_the_run(self):
        spans = _recorded_spans(60)
        deducts = [s for s in spans if s.name == "deduct"]
        assert any(s.attrs.get("problem") == "max2" for s in deducts)
        (root,) = [s for s in spans if s.name == "synth"]
        assert root.attrs.get("solved") is True

    def test_enum_heights_recorded_when_deduction_disabled(self):
        # max2 from input-output examples: deduction cannot solve it, so
        # enumeration does.
        spans = _recorded_spans(60, find_benchmark("pbe-max2").problem())
        heights = [
            s.attrs["height"]
            for s in sorted(spans, key=lambda s: s.start)
            if s.name == "enum" and s.attrs.get("problem") == "pbe-max2"
        ]
        assert heights and heights == sorted(heights)
        assert heights[-1] == 2  # max2 lives at height 2

    def test_no_trace_is_fine(self):
        synthesizer = CooperativeSynthesizer(60)
        assert synthesizer.synthesize(_max2_problem()).solved
