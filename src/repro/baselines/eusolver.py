"""An EUSolver-style enumerative baseline.

Reimplements the algorithmic core of EUSolver (Alur, Radhakrishna, Udupa,
TACAS 2017): bottom-up term enumeration ordered by size with *observational
equivalence* pruning on the current example set, plus the divide-and-conquer
unification step — when no single term satisfies every example, enumerate
predicates and learn a decision tree that stitches covering terms together.

Solutions are guaranteed smallest-first with respect to the enumeration
order, which is why this baseline wins the solution-size comparison
(Table 1) while losing on scalability (search grows exponentially in
solution size).
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lang.ast import Kind, Term
from repro.lang.builders import int_const, ite
from repro.lang.compile import compile_term
from repro.lang.evaluator import EvaluationError, Value, evaluate
from repro.lang.sorts import BOOL, INT, Sort
from repro.lang.traversal import subexpressions, substitute
from repro.smt.solver import SolverBudgetExceeded
from repro.sygus.grammar import (
    Grammar,
    is_any_const_ref,
    is_nonterminal_ref,
    ref_name,
)
from repro.sygus.problem import Solution, SygusProblem
from repro.synth.cegis import CegisTimeout, Example, cegis
from repro.synth.result import SynthesisOutcome, SynthesisStats


def spec_constants(problem: SygusProblem) -> List[int]:
    """Integer literals worth trying for ``(Constant Int)`` placeholders."""
    constants: Set[int] = {0, 1}
    for sub in subexpressions(problem.spec):
        if sub.kind is Kind.CONST and sub.sort is INT:
            constants.add(sub.payload)  # type: ignore[arg-type]
            constants.add(sub.payload + 1)  # type: ignore[operator]
            constants.add(sub.payload - 1)  # type: ignore[operator]
    return sorted(constants, key=lambda c: (abs(c), c))[:12]


class TermEnumerator:
    """Bottom-up enumeration of grammar terms by size, per nonterminal.

    ``terms(nt, size)`` returns all observationally distinct terms of that
    exact size (size = number of production applications).
    """

    def __init__(
        self,
        grammar: Grammar,
        constants: Sequence[int],
        examples: Sequence[Example],
        funcs,
        max_per_size: int = 4000,
    ) -> None:
        self.grammar = grammar
        self.constants = list(constants)
        self.examples = list(examples)
        self.funcs = funcs
        self.max_per_size = max_per_size
        self._by_size: Dict[Tuple[str, int], List[Term]] = {}
        self._signatures: Dict[str, Set[Tuple]] = {nt: set() for nt in grammar.nonterminals}

    def _signature(self, term: Term) -> Optional[Tuple]:
        # Compiled observational-equivalence check: the term compiles once
        # (cached globally on the interned term, so re-enumeration in later
        # CEGIS rounds reuses it) and runs against every example.
        compiled = compile_term(term, funcs=self.funcs)
        values = []
        for example in self.examples:
            try:
                values.append(compiled.eval(example))
            except EvaluationError:
                return None
        return tuple(values)

    def terms(self, nt: str, size: int) -> List[Term]:
        key = (nt, size)
        cached = self._by_size.get(key)
        if cached is not None:
            return cached
        result: List[Term] = []
        for rhs in self.grammar.productions.get(nt, ()):
            for term in self._expand(rhs, size - 1):
                if len(result) >= self.max_per_size:
                    break
                if not self.examples:
                    result.append(term)
                    continue
                signature = self._signature(term)
                if signature is None:
                    continue
                sig_key = (signature,)
                if (size, sig_key) in self._signatures[nt]:
                    continue
                # Observational equivalence across *all* sizes for this nt.
                if any(
                    (s, sig_key) in self._signatures[nt] for s in range(1, size)
                ):
                    continue
                self._signatures[nt].add((size, sig_key))
                result.append(term)
        self._by_size[key] = result
        return result

    def _expand(self, rhs: Term, budget: int) -> Iterable[Term]:
        """All instantiations of ``rhs`` whose placeholder subtrees total
        ``budget`` size units."""
        refs = _collect_refs(rhs)
        if not refs:
            if budget != 0:
                return
            if is_any_const_ref(rhs):
                for constant in self.constants:
                    yield int_const(constant)
            else:
                yield rhs
            return
        if budget < len(refs):
            return
        for split in _compositions(budget, len(refs)):
            choices = [
                self.terms(ref_name(ref), part) for ref, part in zip(refs, split)
            ]
            if any(not c for c in choices):
                continue
            for combo in itertools.product(*choices):
                yield _instantiate_refs(rhs, list(combo))


def _collect_refs(rhs: Term) -> List[Term]:
    if is_nonterminal_ref(rhs):
        return [rhs]
    refs: List[Term] = []
    for arg in rhs.args:
        refs.extend(_collect_refs(arg))
    return refs


def _instantiate_refs(rhs: Term, replacements: List[Term]) -> Term:
    state = {"index": 0}

    def go(t: Term) -> Term:
        if is_nonterminal_ref(t):
            replacement = replacements[state["index"]]
            state["index"] += 1
            return replacement
        if not t.args:
            return t
        return Term.make(t.kind, tuple(go(a) for a in t.args), t.payload, t.sort)

    return go(rhs)


def _compositions(total: int, parts: int) -> Iterable[Tuple[int, ...]]:
    """All ways to write ``total`` as an ordered sum of ``parts`` positives."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class EnumerativeSolver:
    """The EUSolver-style baseline (see module docstring)."""

    name = "eusolver"

    def __init__(self, timeout: Optional[float] = None, max_size: int = 9):
        self.timeout = timeout
        self.max_size = max_size

    def synthesize(self, problem: SygusProblem) -> SynthesisOutcome:
        stats = SynthesisStats()
        start = time.monotonic()
        deadline = start + self.timeout if self.timeout is not None else None

        def ind_synth(examples: List[Example]) -> Optional[Term]:
            return self.synthesize_from_examples(problem, examples, deadline, stats)

        try:
            body, _, iterations = cegis(problem, ind_synth, deadline=deadline)
        except (CegisTimeout, SolverBudgetExceeded):
            return SynthesisOutcome(None, stats, timed_out=True)
        stats.cegis_iterations += iterations
        if body is None:
            return SynthesisOutcome(None, stats)
        elapsed = time.monotonic() - start
        return SynthesisOutcome(Solution(problem, body, self.name, elapsed), stats)

    # -- Inductive synthesis over a concrete example set ---------------------------

    def synthesize_from_examples(
        self,
        problem: SygusProblem,
        examples: List[Example],
        deadline: Optional[float],
        stats: SynthesisStats,
    ) -> Optional[Term]:
        grammar = problem.synth_fun.grammar
        funcs = problem.interpreted_defs()
        enumerator = TermEnumerator(
            grammar, spec_constants(problem), examples, funcs
        )
        if not examples:
            for size in range(1, self.max_size + 1):
                terms = enumerator.terms(grammar.start, size)
                if terms:
                    return terms[0]
            return None
        covering: List[Tuple[Term, Tuple[bool, ...]]] = []
        for size in range(1, self.max_size + 1):
            _check_deadline(deadline)
            for term in enumerator.terms(grammar.start, size):
                coverage = tuple(
                    problem.spec_holds(term, example) for example in examples
                )
                if all(coverage):
                    return term
                if any(coverage):
                    covering.append((term, coverage))
            # Unification: try to stitch terms with a decision tree once the
            # collected terms jointly cover all examples.
            if covering and grammar.start_sort is INT:
                union = [
                    any(cov[i] for _, cov in covering)
                    for i in range(len(examples))
                ]
                if all(union):
                    stitched = self._unify(
                        problem, enumerator, covering, examples, size, deadline
                    )
                    if stitched is not None:
                        return stitched
        return None

    def _unify(
        self,
        problem: SygusProblem,
        enumerator: TermEnumerator,
        covering: List[Tuple[Term, Tuple[bool, ...]]],
        examples: List[Example],
        size_limit: int,
        deadline: Optional[float],
    ) -> Optional[Term]:
        """Decision-tree learning over enumerated predicates (ID3-style)."""
        grammar = problem.synth_fun.grammar
        bool_nts = [n for n, s in grammar.nonterminals.items() if s is BOOL]
        if not bool_nts:
            return None
        funcs = problem.interpreted_defs()
        predicates: List[Tuple[Term, Tuple[bool, ...]]] = []
        for size in range(1, size_limit + 1):
            for nt in bool_nts:
                for predicate in enumerator.terms(nt, size):
                    _check_deadline(deadline)
                    compiled = compile_term(predicate, funcs=funcs)
                    try:
                        values = tuple(
                            bool(compiled.eval(example))
                            for example in examples
                        )
                    except EvaluationError:
                        continue
                    predicates.append((predicate, values))
        indices = tuple(range(len(examples)))
        return self._learn(covering, predicates, indices, depth=4)

    def _learn(
        self,
        covering: List[Tuple[Term, Tuple[bool, ...]]],
        predicates: List[Tuple[Term, Tuple[bool, ...]]],
        indices: Tuple[int, ...],
        depth: int,
    ) -> Optional[Term]:
        for term, coverage in covering:
            if all(coverage[i] for i in indices):
                return term
        if depth == 0:
            return None
        best = None
        best_score = -1.0
        for predicate, values in predicates:
            true_side = tuple(i for i in indices if values[i])
            false_side = tuple(i for i in indices if not values[i])
            if not true_side or not false_side:
                continue
            score = _entropy_gain(covering, indices, true_side, false_side)
            if score > best_score:
                best_score = score
                best = (predicate, true_side, false_side)
        if best is None:
            return None
        predicate, true_side, false_side = best
        left = self._learn(covering, predicates, true_side, depth - 1)
        if left is None:
            return None
        right = self._learn(covering, predicates, false_side, depth - 1)
        if right is None:
            return None
        return ite(predicate, left, right)


def _entropy_gain(
    covering: List[Tuple[Term, Tuple[bool, ...]]],
    indices: Tuple[int, ...],
    true_side: Tuple[int, ...],
    false_side: Tuple[int, ...],
) -> float:
    """Heuristic split quality: prefer balanced splits that keep each side
    coverable by a single term."""

    def side_score(side: Tuple[int, ...]) -> float:
        best_cover = 0
        for _, coverage in covering:
            count = sum(1 for i in side if coverage[i])
            best_cover = max(best_cover, count)
        return best_cover / max(len(side), 1)

    balance = min(len(true_side), len(false_side)) / max(len(indices), 1)
    return side_score(true_side) + side_score(false_side) + 0.25 * balance


def _check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise CegisTimeout("enumeration deadline exceeded")
