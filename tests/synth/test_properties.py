"""Cross-cutting property-based tests on synthesis invariants.

These check the paper's meta-level claims on randomly generated instances:

- Theorem 4.2 (completeness of divisions): a solution of the parent problem
  also solves every Type-A subproblem produced by WeakerSpec division.
- Soundness of combination: combining correct subsolutions yields a correct
  parent solution (checked by the verifier).
- Fixed-height minimality: height enumeration returns solutions whose tree
  height does not exceed the height at which they were found.
- Grammar membership is stable under the enumerator: everything the
  EUSolver-style enumerator yields is generated by the grammar.
"""

from hypothesis import given, settings, strategies as st

from repro.lang import (
    add,
    and_,
    eq,
    evaluate,
    ge,
    implies,
    int_const,
    int_var,
    ite,
    le,
    lt,
    not_,
    or_,
    sub,
)
from repro.lang.sorts import INT
from repro.sygus.grammar import clia_grammar, minimal_member, qm_grammar
from repro.sygus.problem import InvariantProblem, SygusProblem, SynthFun
from repro.synth.divide import weaker_spec_splits

x, y = int_var("x"), int_var("y")


# -- Theorem 4.2 for WeakerSpec ------------------------------------------------


@given(
    st.integers(min_value=4, max_value=20),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_theorem_4_2_weaker_spec(bound, start):
    """Any correct invariant for the parent solves both Type-A subproblems."""
    problem = InvariantProblem.from_updates(
        (x,),
        eq(x, start),
        (ite(lt(x, bound), add(x, 1), x),),
        le(x, bound),
    ).to_sygus()
    # The exact reachable-set invariant is correct for the parent.
    solution = and_(ge(x, start), le(x, bound))
    ok, _ = problem.verify(solution)
    assert ok
    for split in weaker_spec_splits(problem):
        sub_ok, _ = split.subproblem.verify(solution)
        assert sub_ok, f"Theorem 4.2 violated by {split.subproblem.name}"


# -- Combination soundness -----------------------------------------------------


@given(st.integers(min_value=2, max_value=16))
@settings(max_examples=10, deadline=None)
def test_weaker_spec_combination_is_verified_sound(bound):
    problem = InvariantProblem.from_updates(
        (x,),
        eq(x, 0),
        (ite(lt(x, bound), add(x, 1), x),),
        le(x, bound),
    ).to_sygus()
    split = weaker_spec_splits(problem)[0]  # pre + inductive, combine with AND
    p_body = ge(x, 0)
    resolution = split.resolve(p_body)
    assert resolution is not None and resolution[0] == "problem"
    _, type_b, combine = resolution
    q_body = le(x, bound)
    b_ok, _ = type_b.verify(q_body)
    if b_ok:
        combined = combine(q_body)
        ok, _ = problem.verify(combined)
        assert ok, "combining verified sub-solutions must verify"


# -- Fixed-height minimality -----------------------------------------------------


def test_height_enumeration_returns_minimal_height():
    from repro.synth.fixed_height import HeightEnumerationSynthesizer

    fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
    fx = fun.apply((x, y))
    spec = and_(ge(fx, x), ge(fx, y), or_(eq(fx, x), eq(fx, y)))
    problem = SygusProblem(fun, spec, (x, y), name="max2")
    outcome = HeightEnumerationSynthesizer(60).synthesize(
        problem
    )
    assert outcome.solved
    # No height-1 (affine) max exists, so the minimal height is exactly 2,
    # and the returned solution must respect the found height.
    assert outcome.stats.max_height_reached == 2


# -- Enumerator membership ----------------------------------------------------------


@given(st.integers(min_value=1, max_value=4))
@settings(max_examples=12, deadline=None)
def test_enumerated_terms_are_grammar_members(size):
    from repro.baselines.eusolver import TermEnumerator

    grammar = qm_grammar((x, y))
    enumerator = TermEnumerator(grammar, [0, 1], [], {})
    for term in enumerator.terms("S", size)[:50]:
        assert grammar.generates(term), term


def test_minimal_member_is_member():
    for grammar in (clia_grammar((x, y)), qm_grammar((x,))):
        member = minimal_member(grammar)
        assert member is not None
        assert grammar.generates(member)


# -- Deduction solutions verify --------------------------------------------------------


@given(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-5, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_deduction_solutions_always_verify(a, b, c):
    """Whatever affine reference we force, the deduced solution verifies."""
    from repro.synth.deduction import Deducer

    fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
    reference = add(
        *( [x] * abs(a) ),
        *( [y] * abs(b) ),
        int_const(c),
    ) if (a >= 0 and b >= 0) else sub(
        add(*([x] * abs(a)), int_const(c)) if a >= 0 else int_const(c),
        add(*([y] * abs(b))) if b < 0 else int_const(0),
    )
    spec = eq(fun.apply((x, y)), reference)
    problem = SygusProblem(fun, spec, (x, y))
    result = Deducer(problem).deduct()
    if result.solution is not None:
        ok, _ = problem.verify(result.solution)
        assert ok
