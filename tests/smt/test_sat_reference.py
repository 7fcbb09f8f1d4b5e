"""The CDCL kernel against the reference kernel it replaced.

Both solvers are driven with the same sequences of ``new_var``,
``add_clause`` and ``solve(assumptions)``.  The clauses include units,
duplicate literals, tautologies, literals false at level 0 and variables
not yet allocated; the assumptions include repeated, contradictory and
already-implied literals.  A small ``_max_learnts`` forces clause-database
reductions and a huge starting ``_var_inc`` forces the 1e100 activity
rescale.  The search is the same on both sides, so after every step the two
must return the same value and model, report the same unsat core in the
same order, count the same work and hold the same learnt clauses, literal
for literal, with the same LBDs.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.smt.sat import SatSolver

from tests.smt.reference_sat import SatSolver as ReferenceSatSolver


def _state(solver):
    learnts = list(solver._learnts)
    return {
        "vars": solver.num_vars,
        "conflicts": solver.num_conflicts,
        "decisions": solver.num_decisions,
        "propagations": solver.num_propagations,
        "restarts": solver.num_restarts,
        "learnts": solver.num_learnts,
        "deleted": solver.num_learnts_deleted,
        "core": list(solver.unsat_core),
        "clauses": [list(solver._clauses[ci]) for ci in learnts],
        "lbd": [solver._lbd[ci] for ci in learnts],
    }


def _pair(max_learnts=4000.0, var_inc=1.0):
    solvers = SatSolver(), ReferenceSatSolver()
    for solver in solvers:
        solver._max_learnts = max_learnts
        solver._var_inc = var_inc
    return solvers


def _run(solvers, steps):
    """Apply every step to both solvers, comparing them after each one."""
    fast, reference = solvers
    for kind, lits in steps:
        if kind == "var":
            got, want = fast.new_var(), reference.new_var()
        elif kind == "clause":
            got, want = fast.add_clause(list(lits)), reference.add_clause(list(lits))
        else:
            got, want = fast.solve(list(lits)), reference.solve(list(lits))
        assert got == want, (kind, lits)
        assert _state(fast) == _state(reference), (kind, lits)


# Clause widths: mostly 3 and 4, rarely units, so most sequences reach
# conflicts before the database turns unsat at level 0.
_WIDTHS = [1] + [2] * 5 + [3] * 25 + [4] * 12 + [5] * 4 + [6] * 3


def _literals(rng, num_vars, count):
    # Picks with replacement give duplicates and tautologies in clauses, and
    # repeated and contradictory assumptions.  A clause or an assumption
    # often names a variable not yet allocated.
    return [rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(count)]


def _steps(rng, num_vars):
    steps = []
    for _ in range(num_vars * 5):
        draw = rng.random()
        if draw < 0.03:
            steps.append(("var", []))
        elif draw < 0.15:
            steps.append(("solve", _literals(rng, num_vars, rng.randint(0, 4))))
        else:
            steps.append(("clause", _literals(rng, num_vars, rng.choice(_WIDTHS))))
    steps.append(("solve", []))
    return steps


@given(
    st.randoms(use_true_random=False),
    st.integers(6, 30),
    st.sampled_from([4000.0, 2.0]),
    st.sampled_from([1.0, 1e99]),
)
@settings(max_examples=300, deadline=None)
def test_every_step_matches_the_reference(rng, num_vars, max_learnts, var_inc):
    _run(_pair(max_learnts, var_inc), _steps(rng, num_vars))


def _random_3cnf(rng, num_vars, num_clauses):
    return [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(num_clauses)
    ]


def test_restarts_and_reductions_match_the_reference():
    """Instances near the 3-SAT threshold: hundreds of conflicts, so Luby
    restarts, clause-DB reductions and the activity rescale all run, across
    incremental solves under assumptions."""
    restarts = deleted = rescaled = 0
    for seed in range(6):
        rng = random.Random(seed)
        solvers = _pair(max_learnts=8.0, var_inc=1e99 if seed % 2 else 1.0)
        steps = [("clause", clause) for clause in _random_3cnf(rng, 80, 300)]
        for _ in range(6):
            picked = rng.sample(range(1, 81), 3)
            steps.append(("solve", [v if rng.random() < 0.5 else -v for v in picked]))
            steps.extend(("clause", clause) for clause in _random_3cnf(rng, 80, 8))
        steps.append(("solve", []))
        _run(solvers, steps)
        restarts += solvers[0].num_restarts
        deleted += solvers[0].num_learnts_deleted
        # _var_inc only grows between rescales.
        rescaled += solvers[0]._var_inc < 1e99 and seed % 2
    assert restarts > 0 and deleted > 0 and rescaled > 0
