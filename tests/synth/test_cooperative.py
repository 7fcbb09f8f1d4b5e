"""End-to-end tests for the cooperative synthesizer (Algorithm 1)."""

from repro.lang import (
    add,
    and_,
    apply_fn,
    eq,
    evaluate,
    ge,
    implies,
    int_const,
    int_var,
    ite,
    lt,
    not_,
    or_,
    sub,
)
from repro.lang.sorts import INT
from repro.sygus.grammar import (
    Grammar,
    InterpretedFunction,
    clia_grammar,
    nonterminal,
    qm_grammar,
)
from repro.sygus.problem import InvariantProblem, SygusProblem, SynthFun
from repro.synth import CooperativeSynthesizer

x, y, z = int_var("x"), int_var("y"), int_var("z")


def _solve(problem, timeout=60):
    return CooperativeSynthesizer(timeout).synthesize(problem)


class TestCliaTrack:
    def test_max2(self):
        fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
        fx = fun.apply((x, y))
        spec = and_(ge(fx, x), ge(fx, y), or_(eq(fx, x), eq(fx, y)))
        problem = SygusProblem(fun, spec, (x, y), name="max2")
        outcome = _solve(problem)
        assert outcome.solved
        ok, _ = problem.verify(outcome.solution.body)
        assert ok

    def test_max3_solved_by_deduction(self):
        fun = SynthFun("f", (x, y, z), INT, clia_grammar((x, y, z)))
        fx = fun.apply((x, y, z))
        spec = and_(
            ge(fx, x),
            ge(fx, y),
            ge(fx, z),
            or_(eq(fx, x), eq(fx, y), eq(fx, z)),
        )
        problem = SygusProblem(fun, spec, (x, y, z), name="max3")
        outcome = _solve(problem)
        assert outcome.solved
        assert outcome.stats.deduction_solved
        assert outcome.solution.time_seconds < 10

    def test_reference_spec(self):
        fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
        spec = eq(fun.apply((x, y)), ite(ge(x, 0), add(x, y), y))
        problem = SygusProblem(fun, spec, (x, y), name="relu-shift")
        outcome = _solve(problem)
        assert outcome.solved
        ok, _ = problem.verify(outcome.solution.body)
        assert ok


class TestInvTrack:
    def test_count_loop_via_summary(self):
        inv = InvariantProblem.from_updates(
            (x,),
            eq(x, 0),
            (ite(lt(x, 100), add(x, 1), x),),
            implies(not_(lt(x, 100)), eq(x, 100)),
        )
        problem = inv.to_sygus()
        outcome = _solve(problem)
        assert outcome.solved
        assert outcome.stats.deduction_solved
        ok, _ = problem.verify(outcome.solution.body)
        assert ok

    def test_range_init_loop_without_summary(self):
        from repro.lang import le

        inv = InvariantProblem.from_updates(
            (x,),
            and_(ge(x, 0), le(x, 2)),
            (ite(lt(x, 6), add(x, 1), x),),
            le(x, 6),
        )
        problem = inv.to_sygus()
        outcome = _solve(problem, timeout=90)
        assert outcome.solved
        ok, _ = problem.verify(outcome.solution.body)
        assert ok


class TestGeneralTrack:
    def test_qm_max2(self):
        fun = SynthFun("f", (x, y), INT, qm_grammar((x, y)))
        spec = eq(fun.apply((x, y)), ite(ge(x, y), x, y))
        problem = SygusProblem(fun, spec, (x, y), name="qm-max2")
        outcome = _solve(problem, timeout=120)
        assert outcome.solved
        assert problem.synth_fun.grammar.generates(outcome.solution.body)
        ok, _ = problem.verify(outcome.solution.body)
        assert ok

    def test_match_rule_double(self):
        x1 = int_var("x1")
        double = InterpretedFunction("double", (x1,), add(x1, x1))
        s = nonterminal("S", INT)
        grammar = Grammar(
            {"S": INT},
            "S",
            {"S": [x, int_const(0), int_const(1), apply_fn("double", (s,), INT)]},
            {"double": double},
            (x,),
        )
        fun = SynthFun("f", (x,), INT, grammar)
        spec = eq(fun.apply((x,)), add(x, x, x, x))
        problem = SygusProblem(fun, spec, (x,), name="double-2")
        outcome = _solve(problem)
        assert outcome.solved
        assert outcome.stats.deduction_solved
        assert grammar.generates(outcome.solution.body)


class TestConfigurationAblations:
    def test_timeout_respected(self):
        import time

        from repro.bench.suite import find_benchmark

        # max3 in the qm grammar (Example 2.12): deduction cannot solve it,
        # and the search outlasts this budget.
        problem = find_benchmark("qm-max3").problem()
        start = time.monotonic()
        outcome = _solve(problem, timeout=3)
        elapsed = time.monotonic() - start
        if not outcome.solved:
            assert outcome.timed_out
        assert elapsed < 45  # slack for one slow SMT call past the deadline

    def test_custom_enum_engine_is_used(self):
        from repro.bench.suite import find_benchmark

        calls = []

        def engine(problem, height, examples, deadline, stats):
            calls.append(height)
            return None

        synthesizer = CooperativeSynthesizer(10, enum_engine=engine)
        # max2 from input-output examples: deduction cannot solve it.
        outcome = synthesizer.synthesize(find_benchmark("pbe-max2").problem())
        assert not outcome.solved
        assert calls, "the custom engine must be invoked"

    def test_budget_overrun_is_a_miss_at_that_height(self):
        import time

        from repro.bench.suite import find_benchmark
        from repro.smt.solver import SolverBudgetExceeded
        from repro.synth.fixed_height import fixed_height
        from repro.synth.graph import stable_node_id

        attempts = []

        def engine(problem, height, examples, deadline, stats, **kwargs):
            attempts.append((stable_node_id(problem), height))
            if height == 1:
                # The same deterministic overrun on every retry, as a
                # node-budget overrun inside one verify is.
                raise SolverBudgetExceeded("exceeded 20000 LIA nodes")
            return fixed_height(
                problem, height, examples, deadline, stats, **kwargs
            )

        budget = 10
        synthesizer = CooperativeSynthesizer(budget, enum_engine=engine)
        start = time.monotonic()
        outcome = synthesizer.synthesize(find_benchmark("pbe-max2").problem())
        elapsed = time.monotonic() - start
        assert outcome.solved
        assert not outcome.timed_out
        assert len(attempts) == len(set(attempts)), attempts
        assert elapsed < budget / 2
