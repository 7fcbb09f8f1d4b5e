"""Tests for the parallel height search (Section 5.1).

The height race is a :class:`ProcessPortfolio` over one ``fixed-height@H``
member per height, raced in worker processes.
"""

from repro.lang import and_, eq, ge, int_var, or_
from repro.lang.sorts import INT
from repro.sygus.grammar import clia_grammar
from repro.sygus.problem import SygusProblem, SynthFun
from repro.synth.portfolio import ProcessPortfolio

x, y = int_var("x"), int_var("y")


def _max2_problem():
    fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
    fx = fun.apply((x, y))
    spec = and_(ge(fx, x), ge(fx, y), or_(eq(fx, x), eq(fx, y)))
    return SygusProblem(fun, spec, (x, y), name="max2")


def _max4_problem():
    params = tuple(int_var(f"v{i}") for i in range(4))
    fun = SynthFun("f", params, INT, clia_grammar(params))
    fx = fun.apply(params)
    spec = and_(*(ge(fx, p) for p in params), or_(*(eq(fx, p) for p in params)))
    return SygusProblem(fun, spec, params, name="max4")


def _height_race(timeout, heights, workers):
    """One fixed-height job per height in ``heights``."""
    members = [f"fixed-height@{h}" for h in heights]
    return ProcessPortfolio(members, timeout, workers=workers)


class TestParallelHeights:
    def test_solves_max2_with_two_workers(self):
        problem = _max2_problem()
        outcome = _height_race(60, (1, 2, 3, 4), 2).synthesize(problem)
        assert outcome.solved
        assert outcome.solution.engine.startswith("portfolio-mp:fixed-height@")
        ok, _ = problem.verify(outcome.solution.body)
        assert ok

    def test_single_worker_degenerates_to_sequential(self):
        outcome = _height_race(60, (1, 2, 3, 4), 1).synthesize(
            _max2_problem()
        )
        assert outcome.solved

    def test_unsolvable_within_height_cap(self):
        outcome = _height_race(30, (1, 2), 2).synthesize(_max4_problem())
        assert not outcome.solved


class TestProcessBackend:
    def test_solves_max2_across_processes(self):
        # One worker process per height: every height runs concurrently.
        problem = _max2_problem()
        outcome = _height_race(60, (1, 2, 3), 3).synthesize(problem)
        assert outcome.solved
        ok, _ = problem.verify(outcome.solution.body)
        assert ok
        assert outcome.stats.heights_tried >= 1

    def test_unsolvable_within_height_cap(self):
        # More worker processes than heights: the surplus stays idle and
        # the capped race still reports no solution.
        outcome = _height_race(30, (1, 2), 4).synthesize(_max4_problem())
        assert not outcome.solved
