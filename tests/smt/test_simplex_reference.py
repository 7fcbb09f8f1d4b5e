"""The fraction-free simplex against the tuple-rational reference.

Both tableaux are driven with the same Hypothesis sequences of ``new_var``,
``new_slack`` (including slacks over basic variables), ``push``,
``assert_bound``, ``check`` and ``pop``.  The arithmetic is exact on both
sides, so every decision must agree: after every step the two give the same
verdict, the same conflict bounds in the same order, equal values for every
variable and the same number of pivots.  Coefficients reach ``±10**6`` so
that rows need reducing.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.smt.simplex import Bound, Conflict, Simplex, pivots_total

from tests.smt.reference_simplex import ReferenceSimplex

_coeff = st.one_of(
    st.integers(-4, 4),
    st.integers(-(10**6), 10**6),
)

# One step: a kind, then the fields that kind reads.  Asserts and checks
# are drawn more often than the rest, so that most sequences pivot.  An
# asserted bound lies from one unit short of the variable's value to two
# past it, so that it is often violated or tight.  A ``pick`` chooses a
# variable modulo the current count.
_pick = st.integers(0, 2**16)
_row = st.lists(st.tuples(_pick, _coeff), min_size=1, max_size=4)
_fields = {
    "assert": st.tuples(_pick, st.booleans(), st.integers(-1, 2)),
    "slack": st.tuples(_row),
}
_step = st.sampled_from(
    ["assert"] * 4 + ["check"] * 3 + ["slack"] * 2 + ["push", "pop", "var"]
).flatmap(
    lambda kind: _fields.get(kind, st.just(())).map(lambda fields: (kind, *fields))
)


def _outcome(call):
    """``("ok", result)`` or ``("conflict", bounds)``."""
    try:
        return "ok", call()
    except Conflict as conflict:
        return "conflict", conflict.bounds


@given(
    st.lists(_row, min_size=1, max_size=4),
    st.lists(_step, min_size=10, max_size=40),
)
@settings(max_examples=300, deadline=None)
def test_every_step_matches_the_reference(rows, steps):
    fast, reference = Simplex(), ReferenceSimplex()
    variables = []
    for _ in range(3):
        variables.append(fast.new_var())
        assert reference.new_var() == variables[-1]
    levels = 0
    steps = [("slack", terms) for terms in rows] + steps
    for step, (kind, *fields) in enumerate(steps):
        pivots, reference_pivots = pivots_total(), reference.pivots
        if kind == "var":
            variables.append(fast.new_var())
            assert reference.new_var() == variables[-1]
        elif kind == "slack":
            (terms,) = fields
            combo = {
                variables[term_pick % len(variables)]: coeff
                for term_pick, coeff in terms
            }
            variables.append(fast.new_slack(combo))
            assert reference.new_slack(combo) == variables[-1]
        elif kind == "push":
            fast.push()
            reference.push()
            levels += 1
        elif kind == "pop":
            if not levels:
                continue
            fast.pop()
            reference.pop()
            levels -= 1
        elif kind == "check":
            assert _outcome(fast.check) == _outcome(reference.check)
        else:
            pick, is_lower, offset = fields
            var = variables[pick % len(variables)]
            num, den = fast.raw_value(var)
            if is_lower:
                value = num // den + offset
            else:
                value = -(-num // den) - offset
            bound = Bound(var, is_lower, value, step)
            assert _outcome(lambda: fast.assert_bound(bound)) == _outcome(
                lambda: reference.assert_bound(bound)
            )
        assert pivots_total() - pivots == reference.pivots - reference_pivots
        for var in variables:
            assert Fraction(*fast.raw_value(var)) == Fraction(
                *reference.raw_value(var)
            ), f"value of {var} after step {step} ({kind})"


def test_conflict_order_follows_the_pivoted_row():
    """A pivoted row lists the leaving variable first, then the rest in order.

    ``s = x0 + 2*x1 + 3*x2`` pivots on ``x0`` to reach ``s >= 6``, which
    writes ``x0``'s row as ``{s, x1, x2}``.  The conflict over that row cites
    the bounds in that order, and the DPLL(T) lemma inherits it.
    """
    bounds = []
    for simplex in (Simplex(), ReferenceSimplex()):
        x0, x1, x2 = simplex.new_var(), simplex.new_var(), simplex.new_var()
        s = simplex.new_slack({x0: 1, x1: 2, x2: 3})
        simplex.assert_bound(Bound(s, True, 6, "s>=6"))
        assert simplex.check()
        for bound in (
            Bound(x0, False, 1, "x0<=1"),
            Bound(x1, False, 0, "x1<=0"),
            Bound(x2, False, 0, "x2<=0"),
        ):
            simplex.assert_bound(bound)
        outcome, blamed = _outcome(simplex.check)
        assert outcome == "conflict"
        bounds.append([bound.tag for bound in blamed])
    assert bounds[0] == bounds[1] == ["x0<=1", "s>=6", "x1<=0", "x2<=0"]
