"""Tests for the benchmark suite definitions."""

from collections import Counter

import pytest

from repro.bench.suite import (
    EXCLUDED,
    Benchmark,
    clia_benchmarks,
    demo_subset,
    find_benchmark,
    full_suite,
    general_benchmarks,
    inv_benchmarks,
    suite_by_track,
)


class TestSuiteShape:
    def test_names_are_unique(self):
        names = [b.name for b in full_suite()]
        assert len(names) == len(set(names))

    def test_tracks_are_valid(self):
        assert set(b.track for b in full_suite()) == {"INV", "CLIA", "General"}

    def test_every_track_is_populated(self):
        by_track = suite_by_track()
        assert len(by_track["INV"]) >= 15
        assert len(by_track["CLIA"]) >= 15
        assert len(by_track["General"]) >= 10

    def test_difficulty_spread(self):
        difficulties = Counter(b.difficulty for b in full_suite())
        assert difficulties[1] >= 3, "need trivial benchmarks"
        assert any(d >= 4 for d in difficulties), "need hard benchmarks"

    def test_find_benchmark(self):
        bench = find_benchmark("max2")
        assert bench.track == "CLIA"
        with pytest.raises(KeyError):
            find_benchmark("nope")


class TestDemoSubset:
    def test_demo_subset_is_85_problems(self):
        subset = demo_subset()
        assert len(subset) == 85
        names = {b.name for b in subset}
        assert names.isdisjoint(EXCLUDED)


class TestProblemConstruction:
    def test_all_problems_build(self):
        for bench in full_suite():
            problem = bench.problem()
            assert problem.spec is not None
            assert problem.track == bench.track

    def test_problems_rebuild_equal(self):
        bench = find_benchmark("max2")
        assert bench.problem().spec is bench.problem().spec

    def test_inv_benchmarks_have_invariant_payload(self):
        for bench in inv_benchmarks():
            assert bench.problem().invariant is not None

    def test_clia_benchmarks_use_full_grammar(self):
        from repro.synth.encoding import grammar_is_full_clia

        for bench in clia_benchmarks():
            assert grammar_is_full_clia(bench.problem().synth_fun.grammar)

    def test_general_benchmarks_use_custom_grammars(self):
        from repro.synth.encoding import grammar_is_full_clia

        for bench in general_benchmarks():
            assert not grammar_is_full_clia(bench.problem().synth_fun.grammar)


class TestKnownSolutions:
    """Ground-truth solutions verify, so the specs mean what they claim."""

    def test_max3_ground_truth(self):
        from repro.lang import ge, int_var, ite

        problem = find_benchmark("max3").problem()
        x0, x1, x2 = (int_var(f"x{i}") for i in range(3))
        max2 = ite(ge(x0, x1), x0, x1)
        ok, _ = problem.verify(ite(ge(max2, x2), max2, x2))
        assert ok

    def test_count_up_ground_truth(self):
        from repro.lang import and_, ge, int_var, le

        problem = find_benchmark("count-up-8").problem()
        x = int_var("x")
        ok, _ = problem.verify(and_(ge(x, 0), le(x, 8)))
        assert ok

    def test_qm_max2_ground_truth(self):
        from repro.lang import add, apply_fn, int_var, sub
        from repro.lang.sorts import INT

        problem = find_benchmark("qm-max2").problem()
        x, y = int_var("x"), int_var("y")
        body = add(x, apply_fn("qm", (sub(y, x), 0), INT))
        ok, _ = problem.verify(body)
        assert ok

    def test_array_search_2_ground_truth(self):
        from repro.lang import int_var, ite, lt

        problem = find_benchmark("array_search_2").problem()
        y1, y2, k = int_var("y1"), int_var("y2"), int_var("k")
        body = ite(lt(k, y1), 0, ite(lt(k, y2), 1, 2))
        ok, _ = problem.verify(body)
        assert ok


class TestPbeBenchmarks:
    def test_pbe_ground_truths_satisfy_their_examples(self):
        from repro.bench.suite import pbe_benchmarks
        from repro.lang import evaluate

        for bench in pbe_benchmarks():
            problem = bench.problem()
            # Every PBE spec conjunct must be satisfiable by *some* function;
            # sanity: the spec mentions only constant arguments.
            for invocation in problem.invocations():
                for arg in invocation.args:
                    assert arg.kind.value == "const"

    def test_pbe_specs_not_solved_by_deduction(self):
        from repro.bench.suite import find_benchmark
        from repro.synth.deduction import Deducer

        problem = find_benchmark("pbe-max2").problem()
        result = Deducer(problem).deduct()
        assert result.solution is None

    def test_pbe_solved_by_enumeration(self):
        from repro.bench.suite import find_benchmark
        from repro.synth import CooperativeSynthesizer

        problem = find_benchmark("pbe-double").problem()
        outcome = CooperativeSynthesizer(30).synthesize(problem)
        assert outcome.solved
        ok, _ = problem.verify(outcome.solution.body)
        assert ok
