#!/usr/bin/env python3
"""Loop invariant synthesis (the paper's INV track, Definition 2.13).

Encodes Example 2.14 — ``int x = 0; while (x < 100) x = x + 1;
assert x == 100;`` — plus a two-variable loop, and solves them with the
cooperative synthesizer.  The single-counter loop is dispatched instantly by
the *loop summarisation* rules (Section 6): the transition is acyclic
translational, so ``fast-trans`` gives the reachable states in closed form.

Run:  python examples/invariant_synthesis.py
"""

from repro import solve_sygus
from repro.lang import add, and_, eq, implies, int_var, ite, lt, not_, sub
from repro.sygus.problem import InvariantProblem


def example_2_14() -> None:
    print("== Example 2.14: count to 100 ==")
    x = int_var("x")
    invariant_problem = InvariantProblem.from_updates(
        variables=(x,),
        pre=eq(x, 0),
        updates=(ite(lt(x, 100), add(x, 1), x),),
        post=implies(not_(lt(x, 100)), eq(x, 100)),
        name="count-to-100",
    )
    problem = invariant_problem.to_sygus()
    outcome = solve_sygus(problem, timeout=60)
    assert outcome.solution is not None
    print("invariant:", outcome.solution.define_fun())
    print("via loop summary (pure deduction):", outcome.stats.deduction_solved)
    print(f"time: {outcome.solution.time_seconds:.3f}s")


def crossing_counters() -> None:
    print("\n== two counters crossing ==")
    # x = 0, y = 16; while (x < 16) { x += 1; y -= 1; }  assert y == 0;
    x, y = int_var("x"), int_var("y")
    invariant_problem = InvariantProblem.from_updates(
        variables=(x, y),
        pre=and_(eq(x, 0), eq(y, 16)),
        updates=(
            ite(lt(x, 16), add(x, 1), x),
            ite(lt(x, 16), sub(y, 1), y),
        ),
        post=implies(not_(lt(x, 16)), eq(y, 0)),
        name="crossing",
    )
    problem = invariant_problem.to_sygus()
    outcome = solve_sygus(problem, timeout=120)
    assert outcome.solution is not None
    print("invariant:", outcome.solution.define_fun())
    ok, _ = problem.verify(outcome.solution.body)
    print("verified (pre, inductive, post):", ok)


def compare_with_loopinvgen() -> None:
    print("\n== the LoopInvGen baseline on the same problem ==")
    from repro.baselines import LoopInvGenSolver

    x = int_var("x")
    problem = InvariantProblem.from_updates(
        (x,),
        eq(x, 0),
        (ite(lt(x, 100), add(x, 1), x),),
        implies(not_(lt(x, 100)), eq(x, 100)),
    ).to_sygus()
    outcome = LoopInvGenSolver(60).synthesize(problem)
    if outcome.solution is not None:
        print("loopinvgen invariant:", outcome.solution.define_fun())
    else:
        print("loopinvgen failed within the budget")


if __name__ == "__main__":
    example_2_14()
    crossing_counters()
    compare_with_loopinvgen()
