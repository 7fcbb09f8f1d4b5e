"""Tests for the sequential portfolio and virtual best solver."""

import pytest

from repro.bench.runner import RunResult
from repro.lang import and_, eq, ge, int_var, or_
from repro.lang.sorts import INT
from repro.sygus.grammar import clia_grammar
from repro.sygus.problem import SygusProblem, SynthFun
from repro.synth.portfolio import (
    ProcessPortfolio,
    SequentialPortfolio,
    vbs_summary,
    virtual_best,
)

x, y = int_var("x"), int_var("y")


def _recording_factory(seen):
    """A portfolio member that records the timeout it was built with."""

    class Recorder:
        def __init__(self, timeout):
            seen.append(timeout)

        def synthesize(self, problem):
            from repro.synth.result import SynthesisOutcome, SynthesisStats

            return SynthesisOutcome(None, SynthesisStats())

    return Recorder


def _max2_problem():
    fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
    fx = fun.apply((x, y))
    spec = and_(ge(fx, x), ge(fx, y), or_(eq(fx, x), eq(fx, y)))
    return SygusProblem(fun, spec, (x, y), name="max2")


class TestSequentialPortfolio:
    def test_default_portfolio_solves_max2(self):
        portfolio = SequentialPortfolio.default(60)
        outcome = portfolio.synthesize(_max2_problem())
        assert outcome.solved
        assert outcome.solution.engine.startswith("portfolio:")
        ok, _ = _max2_problem().verify(outcome.solution.body)
        assert ok

    def test_fallback_member_gets_its_turn(self):
        class Hopeless:
            def __init__(self, timeout):
                pass

            def synthesize(self, problem):
                from repro.synth.result import SynthesisOutcome, SynthesisStats

                return SynthesisOutcome(None, SynthesisStats())

        from repro.synth.cooperative import CooperativeSynthesizer

        portfolio = SequentialPortfolio(
            [("nope", Hopeless, 0.5), ("real", CooperativeSynthesizer, 0.5)],
            60,
        )
        outcome = portfolio.synthesize(_max2_problem())
        assert outcome.solved
        assert outcome.solution.engine == "portfolio:real"

    def test_empty_portfolio_rejected(self):
        with pytest.raises(ValueError):
            SequentialPortfolio([])

    def test_members_keep_the_callers_config(self):
        seen = []
        portfolio = SequentialPortfolio(
            [("a", _recording_factory(seen), 0.5),
             ("b", _recording_factory(seen), 0.5)],
            60,
        )
        assert not portfolio.synthesize(_max2_problem()).solved
        assert len(seen) == 2
        for timeout in seen:
            assert 0 < timeout <= 60


class TestProcessPortfolio:
    def test_races_members_and_reports_winner(self):
        portfolio = ProcessPortfolio(timeout=60, workers=2)
        outcome = portfolio.synthesize(_max2_problem())
        assert outcome.solved
        assert outcome.solution.engine.startswith("portfolio-mp:")
        ok, _ = _max2_problem().verify(outcome.solution.body)
        assert ok

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError):
            ProcessPortfolio(members=())


class TestVirtualBest:
    def _results(self):
        return [
            RunResult("a", "CLIA", "s1", True, 2.0, 5),
            RunResult("a", "CLIA", "s2", True, 0.5, 9),
            RunResult("b", "CLIA", "s1", True, 1.0, 4),
            RunResult("b", "CLIA", "s2", False, 10.0),
            RunResult("c", "CLIA", "s1", False, 10.0),
            RunResult("c", "CLIA", "s2", False, 10.0),
        ]

    def test_per_benchmark_minimum(self):
        best = virtual_best(self._results())
        assert best["a"].solver == "s2" and best["a"].time_seconds == 0.5
        assert best["b"].solver == "s1"
        assert best["c"] is None

    def test_summary(self):
        summary = vbs_summary(self._results())
        assert summary["solved"] == 2
        assert summary["total"] == 3
        assert summary["contributions"] == {"s1": 1, "s2": 1}
        assert summary["total_time"] == 1.5
