"""Tests for the normalized problem fingerprint."""

from repro.bench.suite import find_benchmark
from repro.service.fingerprint import canonical_problem_text, problem_fingerprint

MAX2 = """
(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Int)
(declare-var x Int)
(declare-var y Int)
(constraint (>= (f x y) x))
(constraint (>= (f x y) y))
(constraint (or (= (f x y) x) (= (f x y) y)))
(check-synth)
"""

# Same problem: comment, blank lines and spacing jitter.
MAX2_REFORMATTED = """
; a max of two values
(set-logic LIA)

(synth-fun f ((x Int) (y Int)) Int)
(declare-var x Int)
(declare-var y Int)
(constraint (>=   (f x y) x))
(constraint (>= (f x y)   y))
(constraint (or (= (f x y) x) (= (f x y) y)))
(check-synth)
"""


class TestCanonicalization:
    def test_formatting_does_not_change_canonical_text(self):
        assert canonical_problem_text(MAX2) == canonical_problem_text(
            MAX2_REFORMATTED
        )

    def test_problem_object_and_text_agree(self):
        problem = find_benchmark("max2").problem()
        from repro.sygus.serializer import problem_to_sygus

        assert canonical_problem_text(problem) == canonical_problem_text(
            problem_to_sygus(problem)
        )

    def test_unparsable_text_falls_back_to_whitespace_normalization(self):
        assert canonical_problem_text("not sygus\n at  all") == "not sygus at all"


class TestFingerprint:
    def test_identical_problems_same_fingerprint(self):
        assert problem_fingerprint(MAX2, "dryadsynth") == problem_fingerprint(
            MAX2_REFORMATTED, "dryadsynth"
        )

    def test_solver_changes_fingerprint(self):
        assert problem_fingerprint(MAX2, "dryadsynth") != problem_fingerprint(
            MAX2, "cegqi"
        )

    def test_config_changes_fingerprint(self):
        fast = problem_fingerprint(MAX2, "dryadsynth", 1)
        slow = problem_fingerprint(MAX2, "dryadsynth", 9)
        assert fast != slow

    def test_different_problems_differ(self):
        other = MAX2.replace(">=", "<=")
        assert problem_fingerprint(MAX2, "s") != problem_fingerprint(other, "s")

    def test_fingerprint_is_hex_sha256(self):
        fp = problem_fingerprint(MAX2, "dryadsynth")
        assert len(fp) == 64
        int(fp, 16)
