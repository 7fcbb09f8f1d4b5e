"""Property-based simplex tests with feasibility known by construction.

Rather than trusting an external (floating-point) LP oracle, instances are
built around a known witness point: constraints generated to hold at the
witness give feasible systems; appending an explicit contradiction gives
infeasible ones.  The exact simplex must agree in both directions, and its
conflict explanations must themselves be infeasible.

The bound trail is checked against the same simplex rebuilt from scratch:
after any interleaving of ``push``/``assert_bound``/``check``/``pop``, a
warm ``check`` must give the verdict of a fresh tableau holding only the
active bounds.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.smt.simplex import Bound, Conflict, Simplex


def _value(simplex, var):
    return Fraction(*simplex.raw_value(var))


_point = st.lists(st.integers(-8, 8), min_size=3, max_size=3)
_row = st.lists(st.integers(-4, 4), min_size=3, max_size=3)


def _build(rows, witness, slacks):
    """Assert `row . x >= row . witness - slack` for each row: feasible at
    the witness by construction."""
    simplex = Simplex()
    xs = [simplex.new_var() for _ in range(3)]
    for var, value in zip(xs, witness):
        simplex.assert_bound(Bound(var, True, value - 20, f"lo{var}"))
        simplex.assert_bound(Bound(var, False, value + 20, f"hi{var}"))
    for index, (row, slack) in enumerate(zip(rows, slacks)):
        if not any(row):
            continue
        combo = {x: c for x, c in zip(xs, row) if c != 0}
        s = simplex.new_slack(combo)
        threshold = sum(c * v for c, v in zip(row, witness)) - slack
        simplex.assert_bound(Bound(s, True, threshold, f"c{index}"))
    return simplex, xs


@given(
    _point,
    st.lists(_row, min_size=1, max_size=5),
    st.lists(st.integers(0, 5), min_size=5, max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_constructed_feasible_systems_are_feasible(witness, rows, slacks):
    simplex, xs = _build(rows, witness, slacks)
    assert simplex.check()
    # The assignment satisfies every asserted original-variable bound.
    for var, value in zip(xs, witness):
        assert value - 20 <= _value(simplex, var) <= value + 20


@given(
    _point,
    st.lists(_row, min_size=1, max_size=4),
    st.lists(st.integers(0, 5), min_size=4, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_contradiction_is_always_detected(witness, rows, slacks):
    simplex, xs = _build(rows, witness, slacks)
    # x0 >= 100 contradicts the box x0 <= witness + 20 <= 28.
    try:
        simplex.assert_bound(Bound(xs[0], True, 100, "contra"))
        feasible = simplex.check()
    except Conflict as conflict:
        tags = {bound.tag for bound in conflict.bounds}
        assert "contra" in tags
        return
    assert not feasible, "the contradiction must be noticed"


@given(
    _point,
    st.lists(_row, min_size=2, max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_solution_satisfies_all_slack_constraints(witness, rows):
    simplex = Simplex()
    xs = [simplex.new_var() for _ in range(3)]
    thresholds = []
    slack_vars = []
    for index, row in enumerate(rows):
        if not any(row):
            continue
        combo = {x: c for x, c in zip(xs, row) if c != 0}
        s = simplex.new_slack(combo)
        threshold = sum(c * v for c, v in zip(row, witness))
        simplex.assert_bound(Bound(s, True, threshold, f"c{index}"))
        thresholds.append((row, threshold))
        slack_vars.append(s)
    assert simplex.check()
    values = [_value(simplex, x) for x in xs]
    for row, threshold in thresholds:
        total = sum(Fraction(c) * v for c, v in zip(row, values))
        assert total >= threshold


# -- The bound trail ----------------------------------------------------------

_trail_op = st.one_of(
    st.just(("push",)),
    st.just(("pop",)),
    st.just(("check",)),
    st.tuples(
        st.just("assert"),
        st.integers(0, 5),
        st.booleans(),
        st.integers(-12, 12),
    ),
)


def _tableau(rows):
    """Three original variables plus one slack per nonzero row."""
    simplex = Simplex()
    xs = [simplex.new_var() for _ in range(3)]
    slacks = [
        simplex.new_slack({x: c for x, c in zip(xs, row) if c})
        for row in rows
        if any(row)
    ]
    return simplex, xs + slacks


def _verdict(simplex):
    """``True`` when feasible, else the conflict's bounds."""
    try:
        return simplex.check()
    except Conflict as conflict:
        return conflict.bounds


def _fresh_verdict(rows, bounds):
    simplex, _ = _tableau(rows)
    try:
        for bound in bounds:
            simplex.assert_bound(bound)
    except Conflict as conflict:
        return conflict.bounds
    return _verdict(simplex)


def _bound_state(simplex):
    return (
        list(simplex._lower),
        list(simplex._upper),
        list(simplex._lower_val),
        list(simplex._upper_val),
    )


def _assert_explains(rows, active, blamed):
    """A conflict cites only active bounds and is infeasible on its own."""
    for bound in blamed:
        assert bound in active, f"{bound} is not an active bound"
    assert _fresh_verdict(rows, blamed) is not True


def _assert_feasible(simplex, rows, variables, active):
    """The warm assignment satisfies the rows and every active bound."""
    values = [_value(simplex, var) for var in variables]
    nonzero = [row for row in rows if any(row)]
    for row, slack_value in zip(nonzero, values[3:]):
        assert slack_value == sum(c * v for c, v in zip(row, values[:3]))
    for bound in active:
        value = values[variables.index(bound.var)]
        assert value >= bound.value if bound.is_lower else value <= bound.value


@given(
    st.lists(_row, min_size=1, max_size=3),
    st.dictionaries(
        st.integers(0, 2), st.tuples(st.integers(-6, 6), st.integers(0, 12))
    ),
    st.lists(_trail_op, min_size=1, max_size=30),
)
@settings(max_examples=200, deadline=None)
def test_trail_matches_a_fresh_tableau(rows, base, ops):
    simplex, variables = _tableau(rows)
    # Level-0 bounds on the original variables, never popped.
    active = []
    for var, (low, width) in base.items():
        for bound in (
            Bound(var, True, low, f"base-lo{var}"),
            Bound(var, False, low + width, f"base-hi{var}"),
        ):
            simplex.assert_bound(bound)
            active.append(bound)
    # One entry per open level: the active-bound count and the bound state
    # at its push.
    levels = []
    for step, op in enumerate(ops):
        if op[0] == "push":
            simplex.push()
            levels.append((len(active), _bound_state(simplex)))
        elif op[0] == "pop":
            if not levels:
                continue
            simplex.pop()
            size, state = levels.pop()
            del active[size:]
            assert _bound_state(simplex) == state
        elif op[0] == "check":
            verdict = _verdict(simplex)
            expected = _fresh_verdict(rows, active)
            assert (verdict is True) == (expected is True)
            if verdict is True:
                _assert_feasible(simplex, rows, variables, active)
            else:
                _assert_explains(rows, active, verdict)
        else:
            _, pick, is_lower, value = op
            bound = Bound(variables[pick % len(variables)], is_lower, value, step)
            try:
                simplex.assert_bound(bound)
            except Conflict as conflict:
                # Rejected outright: the bound was not stored.
                _assert_explains(rows, active + [bound], conflict.bounds)
            else:
                active.append(bound)
