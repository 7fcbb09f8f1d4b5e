"""SyGuS problem instances (Definition 2.11) and invariant problems (2.13)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.lang.ast import Term
from repro.lang.builders import and_, apply_fn, eq, implies, var
from repro.lang.evaluator import Value, evaluate
from repro.lang.printer import define_fun_sexpr
from repro.lang.sorts import BOOL, Sort
from repro.lang.traversal import (
    app_occurrences,
    free_vars,
    substitute_apps,
)
from repro.sygus.grammar import Grammar, clia_grammar


@dataclass(frozen=True)
class SynthFun:
    """The uninterpreted function to synthesize (Definition 2.9)."""

    name: str
    params: Tuple[Term, ...]
    return_sort: Sort
    grammar: Grammar

    @property
    def arity(self) -> int:
        return len(self.params)

    def apply(self, actuals: Sequence[Term]) -> Term:
        return apply_fn(self.name, actuals, self.return_sort)

    def apply_to_params(self) -> Term:
        return self.apply(self.params)


@dataclass(frozen=True)
class SygusProblem:
    """A SyGuS problem ``(T, f, Phi, G)`` with T fixed to CLIA.

    ``spec`` is the constraint conjunction with all ``define-fun`` helper
    macros already inlined, so the only remaining application symbol is the
    synth-fun itself (plus the grammar's interpreted functions, which appear
    only in candidate *solutions*, never in the spec).
    """

    synth_fun: SynthFun
    spec: Term
    variables: Tuple[Term, ...]
    track: str = "General"
    name: str = "unnamed"
    invariant: Optional["InvariantProblem"] = None

    # -- Inspection ------------------------------------------------------------

    @property
    def fun_name(self) -> str:
        return self.synth_fun.name

    def invocations(self) -> List[Term]:
        """Distinct applications of the synth-fun in the spec."""
        return app_occurrences(self.spec, self.fun_name)

    def is_single_invocation(self) -> bool:
        """True when every occurrence of f has the same argument vector."""
        invocations = self.invocations()
        return len({inv.args for inv in invocations}) <= 1

    # -- Semantics ---------------------------------------------------------------

    def instantiate(self, body: Term) -> Term:
        """``Phi[λparams.body / f]`` — the spec with a candidate inlined."""
        return substitute_apps(
            self.spec, self.fun_name, self.synth_fun.params, body
        )

    def interpreted_defs(self) -> Dict[str, Tuple[Tuple[Term, ...], Term]]:
        """Grammar interpreted functions in evaluator format."""
        return {
            name: (func.params, func.body)
            for name, func in self.synth_fun.grammar.interpreted.items()
        }

    def inline_interpreted(self, body: Term) -> Term:
        """Expand the grammar's interpreted functions inside ``body``."""
        result = body
        for _ in range(64):
            changed = False
            for name, func in self.synth_fun.grammar.interpreted.items():
                expanded = substitute_apps(result, name, func.params, func.body)
                if expanded is not result:
                    result = expanded
                    changed = True
            if not changed:
                return result
        raise ValueError("interpreted function expansion did not converge")

    def _compiled_spec(self):
        """The spec compiled with the synth-fun open (cached per instance)."""
        cached = self.__dict__.get("_compiled_spec_cache")
        if cached is None:
            from repro.lang import compile as lang_compile

            names = tuple(v.payload for v in self.variables)
            spec_vars = {v.payload for v in free_vars(self.spec)}
            extra = tuple(sorted(spec_vars - set(names)))
            cached = lang_compile.compile_spec(
                self.spec,
                self.fun_name,
                names + extra,
                self.interpreted_defs(),
            )
            object.__setattr__(self, "_compiled_spec_cache", cached)
        return cached

    def _compiled_body(self, body: Term):
        """A candidate body compiled over the synth-fun's parameter order."""
        from repro.lang import compile as lang_compile

        return lang_compile.compile_term(
            body,
            tuple(p.payload for p in self.synth_fun.params),
            self.interpreted_defs(),
        )

    def spec_holds(self, body: Term, env: Mapping[str, Value]) -> bool:
        """Concrete check: does the candidate satisfy the spec on ``env``?"""
        result = self._compiled_spec().try_eval(self._compiled_body(body), env)
        if result is not None:
            return result
        # Walker fallback: incomplete environments (and terms the codegen
        # refuses) keep the AST walker's exact lazy semantics, including
        # which EvaluationError surfaces.
        funcs = dict(self.interpreted_defs())
        funcs[self.fun_name] = (self.synth_fun.params, body)
        return bool(evaluate(self.spec, env, funcs))

    def first_violation(
        self, body: Term, examples: Sequence[Mapping[str, Value]]
    ) -> Optional[Mapping[str, Value]]:
        """The first example on which ``body`` violates the spec, or None.

        This is the batch screening path of the CEGIS loops: one compiled
        spec and one compiled candidate evaluate against the whole example
        list in a tight loop, making a known-refuting counterexample far
        cheaper to find than one SMT validity check."""
        if not examples:
            return None
        spec = self._compiled_spec()
        body_fn = self._compiled_body(body)
        walker_funcs: Optional[Dict] = None
        for env in examples:
            result = spec.try_eval(body_fn, env)
            if result is None:
                if walker_funcs is None:
                    walker_funcs = dict(self.interpreted_defs())
                    walker_funcs[self.fun_name] = (
                        self.synth_fun.params,
                        body,
                    )
                result = bool(evaluate(self.spec, env, walker_funcs))
            if not result:
                return env
        return None

    def verify(
        self, body: Term, deadline: Optional[float] = None
    ) -> Tuple[bool, Optional[Dict[str, Value]]]:
        """SMT validity check of the instantiated spec (condition 2.4).

        Returns ``(True, None)`` when ``body`` solves the problem, otherwise
        ``(False, counterexample)``.
        """
        from repro.smt import is_valid

        inlined = self.inline_interpreted(body)
        formula = self.instantiate(inlined)
        valid, counterexample = is_valid(formula, deadline)
        if valid:
            return True, None
        assert counterexample is not None
        # Ensure every declared variable appears in the counterexample.
        for v in self.variables:
            counterexample.setdefault(
                v.payload, False if v.sort is BOOL else 0  # type: ignore[arg-type]
            )
        return False, counterexample

    # -- Transformations (used by deduction / divide-and-conquer) ----------------

    def with_spec(self, spec: Term, name_suffix: str = "") -> "SygusProblem":
        return replace(self, spec=spec, name=self.name + name_suffix)

    def with_grammar(self, grammar: Grammar, name_suffix: str = "") -> "SygusProblem":
        return replace(
            self,
            synth_fun=replace(self.synth_fun, grammar=grammar),
            name=self.name + name_suffix,
        )


@dataclass(frozen=True)
class Solution:
    """A synthesized solution together with provenance and cost metrics."""

    problem: SygusProblem
    body: Term
    engine: str = "unknown"
    time_seconds: float = 0.0

    @property
    def size(self) -> int:
        return self.body.size

    @property
    def height(self) -> int:
        return self.body.height

    def define_fun(self) -> str:
        fun = self.problem.synth_fun
        return define_fun_sexpr(fun.name, fun.params, fun.return_sort, self.body)

    def __repr__(self) -> str:
        return f"Solution({self.define_fun()})"


@dataclass(frozen=True)
class InvariantProblem:
    """An invariant synthesis problem (Definition 2.13).

    ``pre`` and ``post`` are formulas over ``variables``; ``trans`` is a
    formula over ``variables`` plus their primed copies relating one loop
    iteration (the SyGuS INV track's relational transition).
    """

    variables: Tuple[Term, ...]
    pre: Term
    trans: Term
    post: Term
    name: str = "inv"

    @staticmethod
    def primed(variable: Term) -> Term:
        return var(variable.payload + "!", variable.sort)  # type: ignore[operator]

    @staticmethod
    def from_updates(
        variables: Sequence[Term],
        pre: Term,
        updates: Sequence[Term],
        post: Term,
        name: str = "inv",
    ) -> "InvariantProblem":
        """Functional form: ``x := trans(x)`` as in Definition 2.13."""
        if len(updates) != len(variables):
            raise ValueError("one update term per variable required")
        trans = and_(
            *(
                eq(InvariantProblem.primed(v), u)
                for v, u in zip(variables, updates)
            )
        )
        return InvariantProblem(tuple(variables), pre, trans, post, name)

    def primed_variables(self) -> Tuple[Term, ...]:
        return tuple(self.primed(v) for v in self.variables)

    def to_sygus(self, grammar: Optional[Grammar] = None) -> SygusProblem:
        """Encode as a SyGuS problem over the predicate ``inv``.

        spec = (pre → inv(x)) ∧ (inv(x) ∧ trans(x, x') → inv(x'))
               ∧ (inv(x) → post(x))
        """
        if grammar is None:
            grammar = clia_grammar(self.variables, start_sort=BOOL)
        synth_fun = SynthFun("inv", tuple(self.variables), BOOL, grammar)
        inv_x = synth_fun.apply(self.variables)
        inv_x_primed = synth_fun.apply(self.primed_variables())
        spec = and_(
            implies(self.pre, inv_x),
            implies(and_(inv_x, self.trans), inv_x_primed),
            implies(inv_x, self.post),
        )
        all_vars = tuple(self.variables) + self.primed_variables()
        return SygusProblem(
            synth_fun, spec, all_vars, track="INV", name=self.name, invariant=self
        )
