"""The subproblem graph (Section 3.2, Definition 3.1).

A DAG whose unique source is the original problem; an edge ``P -> Q`` means
``Q`` is a Type-A subproblem of ``P`` under some divide-and-conquer strategy.
Nodes are deduplicated by specification and synth-fun signature, so a
subproblem shared between multiple parents (Figure 3's node ``R``) is solved
once and its solution propagates to every parent.

Every node carries a *stable* ``node_id``: a digest of the node's structural
identity (spec text, synth-fun signature, grammar shape) rather than object
identity or insertion order.  The same subproblem therefore gets the same ID
in every process and on every run, which is what lets forensics events from
parallel workers be collated into one subproblem tree by ``dryadsynth
explain``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lang.ast import Term
from repro.lang.printer import to_sexpr
from repro.obs import forensics
from repro.sygus.problem import SygusProblem
from repro.synth.divide import Split


@dataclass(eq=False)
class Edge:
    """Parent-to-child edge: the child is the parent's Type-A subproblem."""

    parent: "Node"
    split: Split


@dataclass(eq=False)
class Node:
    """A problem node: the problem, its solution (if found), and its parents."""

    problem: SygusProblem
    incoming: List[Edge] = field(default_factory=list)
    solution: Optional[Term] = None
    examples: list = field(default_factory=list)
    expanded: bool = False
    depth: int = 0
    #: Time-slice multiplier, doubled when a slice expires without progress.
    slice_factor: float = 1.0
    #: Resumable fixed-height sessions, keyed by height (solver state
    #: survives time-slice preemption).
    sessions: dict = field(default_factory=dict)
    #: Stable structural identity; identical across processes and runs.
    node_id: str = ""

    @property
    def solved(self) -> bool:
        return self.solution is not None


def _node_key(problem: SygusProblem) -> Tuple:
    return (
        problem.spec,
        problem.synth_fun.name,
        problem.synth_fun.params,
        problem.synth_fun.return_sort,
        problem.synth_fun.grammar.fingerprint(),
    )


def stable_node_id(problem: SygusProblem) -> str:
    """A process-stable digest of the node's structural identity.

    Mirrors :func:`_node_key`'s granularity (spec, synth-fun signature,
    grammar shape) but renders every component to text via ``to_sexpr``, so
    the digest does not depend on object identity, hash randomization, or
    insertion order — two workers that derive the same subproblem compute
    the same ID.
    """
    fun = problem.synth_fun
    grammar = fun.grammar
    parts = [
        to_sexpr(problem.spec),
        fun.name,
        " ".join(f"{p.payload}:{p.sort.name}" for p in fun.params),
        fun.return_sort.name,
        grammar.start,
        ";".join(f"{n}:{s.name}" for n, s in sorted(grammar.nonterminals.items())),
    ]
    for name in sorted(grammar.productions):
        rendered = "|".join(to_sexpr(rhs) for rhs in grammar.productions[name])
        parts.append(f"{name}->{rendered}")
    parts.append(",".join(sorted(grammar.interpreted)))
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:12]


# -- Forensics emission helpers -------------------------------------------------
#
# The graph owns node identity, so it also owns the event vocabulary that is
# keyed by it; the cooperative loop calls these at the matching lifecycle
# moments instead of formatting events itself.


def note_solved(node: "Node", how: str) -> None:
    """Record that ``node`` was solved (``how``: ``direct``/``propagated``)."""
    forensics.emit(
        forensics.GRAPH_SOLVE,
        node=node.node_id,
        fun=node.problem.synth_fun.name,
        how=how,
        depth=node.depth,
    )


def note_parked(node: "Node", height: int) -> None:
    """Record a slice-expiry preemption: the node re-enters the worklist."""
    forensics.emit(
        forensics.GRAPH_PARK,
        node=node.node_id,
        fun=node.problem.synth_fun.name,
        height=height,
        depth=node.depth,
    )


def note_freed(node: "Node", sessions: int) -> None:
    """Record that a solved node released its parked solver sessions."""
    forensics.emit(
        forensics.GRAPH_FREE,
        node=node.node_id,
        fun=node.problem.synth_fun.name,
        sessions=sessions,
        depth=node.depth,
    )


class SubproblemGraph:
    """DAG of subproblems with structural node sharing."""

    def __init__(self, root_problem: SygusProblem):
        self._nodes: Dict[Tuple, Node] = {}
        self.source = Node(root_problem, node_id=stable_node_id(root_problem))
        self._nodes[_node_key(root_problem)] = self.source
        forensics.emit(
            forensics.GRAPH_NODE,
            node=self.source.node_id,
            fun=root_problem.synth_fun.name,
            depth=0,
        )

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    def add_subproblem(self, parent: Node, split: Split) -> Tuple[Node, bool]:
        """Add ``split``'s Type-A subproblem under ``parent``.

        Returns ``(node, created)`` where ``created`` is False when the
        subproblem was already present (shared structure).
        """
        key = _node_key(split.subproblem)
        node = self._nodes.get(key)
        created = node is None
        if node is None:
            node = Node(
                split.subproblem,
                depth=parent.depth + 1,
                node_id=stable_node_id(split.subproblem),
            )
            self._nodes[key] = node
            forensics.emit(
                forensics.GRAPH_NODE,
                node=node.node_id,
                fun=split.subproblem.synth_fun.name,
                parent=parent.node_id,
                strategy=split.strategy,
                depth=node.depth,
            )
        else:
            forensics.emit(
                forensics.GRAPH_SHARE,
                node=node.node_id,
                fun=split.subproblem.synth_fun.name,
                parent=parent.node_id,
                strategy=split.strategy,
                depth=node.depth,
            )
        node.incoming.append(Edge(parent, split))
        return node, created

    def add_problem(self, problem: SygusProblem, depth: int) -> Tuple[Node, bool]:
        """Add a free-standing problem node (used for Type-B problems)."""
        key = _node_key(problem)
        node = self._nodes.get(key)
        created = node is None
        if node is None:
            node = Node(problem, depth=depth, node_id=stable_node_id(problem))
            self._nodes[key] = node
            forensics.emit(
                forensics.GRAPH_NODE,
                node=node.node_id,
                fun=problem.synth_fun.name,
                depth=depth,
            )
        return node, created
