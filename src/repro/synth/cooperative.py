"""Cooperative synthesis — Algorithm 1 (Section 3.3).

The solver keeps a subproblem graph, a deduction queue and a height-priority
enumeration queue.  Deduction always has priority; problems it cannot finish
are divided (Section 4) and also handed to the fixed-height enumerative
engine, one height at a time.  Solutions to Type-A subproblems transform
their parents into Type-B subproblems, whose solutions combine back into
parent solutions, all the way up to the source.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from typing import Callable, List, Optional

from repro import obs
from repro.obs import forensics
from repro.lang.ast import Term
from repro.smt.solver import SolverBudgetExceeded
from repro.sygus.problem import Solution, SygusProblem
from repro.synth.cegis import CegisTimeout
from repro.synth.deduction import Deducer
from repro.synth.divide import Split, propose_splits
from repro.synth.encoding import EncodingUnsupported
from repro.synth.fixed_height import MAX_HEIGHT, fixed_height
from repro.synth.graph import Edge, Node, SubproblemGraph, note_solved
from repro.synth.result import SynthesisOutcome, SynthesisStats

#: Signature of a pluggable enumerative engine, called as
#: ``engine(problem, height, examples, deadline, stats)`` like
#: :func:`~repro.synth.fixed_height.fixed_height`: returns a verified
#: candidate body of height (or size class) ``height``, or None.
EnumEngine = Callable[..., Optional[Term]]

#: Maximum divide-and-conquer depth (splits of splits).
_MAX_SPLIT_DEPTH = 2

#: SMT-check budget of the final minimisation pass.
MINIMIZE_BUDGET = 16


class CooperativeSynthesizer:
    """DryadSynth: deduction + divide-and-conquer + height enumeration."""

    def __init__(
        self,
        timeout: Optional[float] = None,
        enum_engine: Optional[EnumEngine] = None,
        name: str = "dryadsynth",
    ) -> None:
        self.timeout = timeout
        self.enum_engine = enum_engine or fixed_height
        self.name = name

    # -- Main loop (Algorithm 1) -------------------------------------------------

    def synthesize(self, problem: SygusProblem) -> SynthesisOutcome:
        """Run Algorithm 1; the whole run is a ``synth`` telemetry span."""
        with obs.span(
            "synth", problem=problem.name, solver=self.name
        ) as root_span:
            outcome = self._synthesize_impl(problem)
            root_span.set(
                solved=outcome.solved, timed_out=outcome.timed_out
            )
        if obs.enabled():
            obs.publish_stats(outcome.stats)
        return outcome

    def _synthesize_impl(self, problem: SygusProblem) -> SynthesisOutcome:
        stats = SynthesisStats()
        start = time.monotonic()
        deadline = start + self.timeout if self.timeout is not None else None
        graph = SubproblemGraph(problem)
        ded_queue: deque = deque([graph.source])
        enum_queue: List = []
        counter = itertools.count()
        timed_out = False

        def enqueue_enum(node: Node, height: int) -> None:
            heapq.heappush(enum_queue, (height, next(counter), node))

        try:
            while not graph.source.solved:
                if deadline is not None and time.monotonic() > deadline:
                    timed_out = True
                    break
                if ded_queue:
                    node = ded_queue.popleft()
                    if node.solved:
                        continue
                    with obs.span(
                        "deduct", problem=node.problem.name, node=node.node_id
                    ):
                        self._deduction_step(node, graph, ded_queue, stats, deadline)
                    if not node.solved:
                        enqueue_enum(node, 1)
                elif enum_queue:
                    height, _, node = heapq.heappop(enum_queue)
                    if node.solved:
                        continue
                    stats.heights_tried += 1
                    stats.max_height_reached = max(stats.max_height_reached, height)
                    with obs.span(
                        "enum",
                        problem=node.problem.name,
                        height=height,
                        node=node.node_id,
                    ) as enum_span:
                        body = self._enum_step(node, height, stats, deadline)
                        enum_span.set(
                            outcome="hit" if body is not None else "miss"
                        )
                    if body is not None:
                        self._mark_solved(node, body, graph, ded_queue, stats, deadline)
                    elif height < MAX_HEIGHT:
                        enqueue_enum(node, height + 1)
                else:
                    break
        except (CegisTimeout, SolverBudgetExceeded):
            timed_out = True
        if graph.source.solved:
            from repro.synth.minimize import minimize_solution

            body = graph.source.solution
            try:
                with obs.span(
                    "minimize", problem=problem.name, node=graph.source.node_id
                ):
                    body = minimize_solution(
                        problem, body, MINIMIZE_BUDGET, deadline
                    )
            except SolverBudgetExceeded:
                pass
            elapsed = time.monotonic() - start
            solution = Solution(problem, body, self.name, elapsed)
            return SynthesisOutcome(solution, stats)
        return SynthesisOutcome(None, stats, timed_out=timed_out)

    # -- Steps -------------------------------------------------------------------------

    def _deduction_step(
        self,
        node: Node,
        graph: SubproblemGraph,
        ded_queue: deque,
        stats: SynthesisStats,
        deadline: Optional[float],
    ) -> None:
        result = Deducer(node.problem, stats, deadline).deduct()
        if result.solution is not None:
            self._mark_solved(
                node, result.solution, graph, ded_queue, stats, deadline
            )
            return
        if result.unsolvable:
            node.expanded = True
            return
        if result.simplified_spec is not None:
            node.problem = node.problem.with_spec(result.simplified_spec)
        if not node.expanded and node.depth < _MAX_SPLIT_DEPTH:
            node.expanded = True
            for split in propose_splits(node.problem):
                child, created = graph.add_subproblem(node, split)
                stats.subproblems_created += int(created)
                forensics.emit(
                    forensics.DIVIDE_CHOICE,
                    node=node.node_id,
                    strategy=split.strategy,
                    child=child.node_id,
                    created=created,
                )
                if created:
                    ded_queue.append(child)
                elif child.solved:
                    # Shared subproblem already solved: propagate to us now.
                    self._propagate(child, graph, ded_queue, stats, deadline)

    def _enum_step(
        self,
        node: Node,
        height: int,
        stats: SynthesisStats,
        deadline: Optional[float],
    ) -> Optional[Term]:
        """One fixed-height attempt: a verified body, or None on a miss.

        A miss is an exhausted height, a grammar the engine cannot encode,
        or a per-query budget overrun before the run's deadline; only the
        run's deadline propagates, and ends the run.
        """
        try:
            return self.enum_engine(
                node.problem, height, node.examples, deadline, stats
            )
        except EncodingUnsupported:
            return None
        except (CegisTimeout, SolverBudgetExceeded):
            if deadline is not None and time.monotonic() > deadline:
                raise
            return None

    # -- Solution propagation ---------------------------------------------------------------

    def _mark_solved(
        self,
        node: Node,
        body: Term,
        graph: SubproblemGraph,
        ded_queue: deque,
        stats: SynthesisStats,
        deadline: Optional[float],
        verified: bool = False,
        how: str = "direct",
    ) -> None:
        if node.solved:
            return
        # Defense in depth: never accept an unverified body, whatever engine
        # produced it (pluggable engines may only be example-consistent).
        if not verified and not self._accept(node, body, deadline):
            forensics.emit(
                forensics.DIVIDE_REJECT,
                node=node.node_id,
                reason="unverified-candidate",
            )
            return
        node.solution = body
        stats.subproblems_solved += 1
        note_solved(node, how)
        self._propagate(node, graph, ded_queue, stats, deadline)

    def _propagate(
        self,
        node: Node,
        graph: SubproblemGraph,
        ded_queue: deque,
        stats: SynthesisStats,
        deadline: Optional[float],
    ) -> None:
        """Turn parents of a solved Type-A node into Type-B subproblems."""
        assert node.solution is not None
        for edge in list(node.incoming):
            parent = edge.parent
            if parent.solved:
                continue
            resolution = edge.split.resolve(node.solution)
            if resolution is None:
                # The resolver emitted its own divide.reject with the
                # specific reason (trivial-a-solution, not-in-grammar, ...).
                continue
            if resolution[0] == "solution":
                candidate = resolution[1]
                self._mark_solved(
                    parent, candidate, graph, ded_queue, stats, deadline,
                    how="propagated",
                )
                continue
            _, b_problem, combine = resolution
            b_node, created = graph.add_problem(b_problem, parent.depth + 1)
            b_node.incoming.append(
                Edge(parent, _combiner_split(b_problem, combine))
            )
            if created:
                ded_queue.append(b_node)
            elif b_node.solved:
                self._propagate(b_node, graph, ded_queue, stats, deadline)

    def _accept(
        self, node: Node, candidate: Term, deadline: Optional[float]
    ) -> bool:
        """Defensive verification of a combined solution."""
        try:
            with obs.span(
                "verify", problem=node.problem.name, accept=True,
                node=node.node_id,
            ):
                ok, _ = node.problem.verify(candidate, deadline)
        except SolverBudgetExceeded:
            return False
        return ok


def _combiner_split(b_problem: SygusProblem, combine: Callable[[Term], Term]) -> Split:
    """A synthetic split whose resolution applies the Type-B combiner."""

    def resolve(b_body: Term):
        return ("solution", combine(b_body))

    return Split("type-b", b_problem, resolve)
