"""Tests for the LoopInvGen-style data-driven invariant baseline."""

from repro.lang import (
    add,
    and_,
    eq,
    ge,
    implies,
    int_var,
    ite,
    le,
    lt,
    not_,
    sub,
)
from repro.lang.sorts import INT
from repro.sygus.grammar import clia_grammar
from repro.sygus.problem import InvariantProblem, SygusProblem, SynthFun
from repro.baselines.loopinvgen import LoopInvGenSolver

x, y = int_var("x"), int_var("y")


def _count_up(bound):
    return InvariantProblem.from_updates(
        (x,),
        eq(x, 0),
        (ite(lt(x, bound), add(x, 1), x),),
        implies(not_(lt(x, bound)), eq(x, bound)),
        name=f"count-up-{bound}",
    )


class TestScope:
    def test_only_inv_track(self):
        fun = SynthFun("f", (x,), INT, clia_grammar((x,)))
        problem = SygusProblem(fun, eq(fun.apply((x,)), x), (x,), track="CLIA")
        outcome = LoopInvGenSolver(5).synthesize(problem)
        assert not outcome.solved


class TestInternals:
    def test_unroll_collects_trajectory(self):
        solver = LoopInvGenSolver()
        inv = _count_up(5)
        states = solver._unroll(inv, (0,))
        assert states == [(0,), (1,), (2,), (3,), (4,), (5,)]

    def test_unroll_stops_at_fixpoint(self):
        solver = LoopInvGenSolver()
        inv = _count_up(3)
        states = solver._unroll(inv, (3,))
        assert states == [(3,)]

    def test_features_include_octagons(self):
        solver = LoopInvGenSolver()
        inv = InvariantProblem.from_updates(
            (x, y),
            and_(eq(x, 0), eq(y, 0)),
            (add(x, 1), add(y, 1)),
            ge(y, x),
        )
        features = solver._features(inv)
        rendered = {repr(f) for f in features}
        assert "(>= x y)" in rendered or "(<= x y)" in rendered

    def test_sample_pre(self):
        solver = LoopInvGenSolver()
        inv = _count_up(5)
        assert solver._sample_pre(inv, ["x"]) == (0,)

    def test_learner_separates_labels(self):
        solver = LoopInvGenSolver()
        inv = _count_up(5)
        features = solver._features(inv)
        candidate = solver._learn(
            features, ["x"], {(0,), (1,), (2,)}, {(10,), (-1,)}
        )
        assert candidate is not None
        from repro.lang import evaluate

        for state in (0, 1, 2):
            assert evaluate(candidate, {"x": state}) is True
        for state in (10, -1):
            assert evaluate(candidate, {"x": state}) is False


class TestEndToEnd:
    def test_count_up(self):
        problem = _count_up(20).to_sygus()
        outcome = LoopInvGenSolver(60).synthesize(problem)
        assert outcome.solved
        ok, _ = problem.verify(outcome.solution.body)
        assert ok

    def test_twin_counters(self):
        inv = InvariantProblem.from_updates(
            (x, y),
            and_(eq(x, 0), eq(y, 0)),
            (ite(lt(x, 8), add(x, 1), x), ite(lt(x, 8), add(y, 1), y)),
            implies(not_(lt(x, 8)), eq(y, 8)),
        )
        problem = inv.to_sygus()
        outcome = LoopInvGenSolver(60).synthesize(problem)
        assert outcome.solved
        ok, _ = problem.verify(outcome.solution.body)
        assert ok

    def test_count_down(self):
        from repro.lang import gt

        inv = InvariantProblem.from_updates(
            (x,),
            eq(x, 12),
            (ite(gt(x, 0), sub(x, 1), x),),
            implies(not_(gt(x, 0)), eq(x, 0)),
        )
        problem = inv.to_sygus()
        outcome = LoopInvGenSolver(60).synthesize(problem)
        assert outcome.solved
        ok, _ = problem.verify(outcome.solution.body)
        assert ok
