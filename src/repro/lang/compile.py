"""Compile-once evaluation of CLIA terms.

The AST walker (:mod:`repro.lang.evaluator`) pays the full interpretation
overhead — kind dispatch, cache probes, environment dict lookups — on every
node of every evaluation.  The hot loops of this repo evaluate the *same*
term against many environments: CEGIS screens one candidate against the
whole counterexample list, the enumerative baseline computes an
observational-equivalence signature per enumerated term, and the spec is
re-checked for every (candidate, example) pair.  This module closes a term
into a plain Python function once and reuses it for every environment.

Design constraints, in order:

- **Semantics parity with the walker.**  The generated code uses Python's
  naturally lazy forms (``and``/``or``, conditional expressions), matching
  the walker's short-circuiting ``all()``/``any()`` and one-branch ``ite``
  exactly — including *which* :class:`EvaluationError` is or is not raised
  on partially defined environments.  Whenever compilation or the fast
  calling convention cannot guarantee parity (missing variables, oversized
  terms, exotic nesting), evaluation falls back to the walker, which stays
  the ground truth.
- **Compile once, globally.**  Terms are hash-consed
  (:class:`repro.lang.ast.Term`), so compiled artifacts are cached in
  module-level LRU tables keyed by the interned term — the enumerative
  baseline rebuilding its enumerator every CEGIS round still hits the cache
  for every term it has ever compiled.
- **Interpreted functions compile too.**  Each referenced definition
  becomes its own compiled function, late-bound through a cell so
  (mutually) recursive definitions behave like the walker (a runtime
  ``RecursionError``, not a compile failure).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.lang.ast import Kind, Term
from repro.lang.evaluator import (
    EvaluationError,
    FunctionDefs,
    Value,
    evaluate,
)
from repro.lang.traversal import free_vars

#: Effective (DAG-expanded) node count above which codegen gives up: the
#: generated source duplicates shared subterms, so a heavily shared DAG can
#: explode exponentially in source size where the walker stays linear.
MAX_EXPANDED_NODES = 50_000

#: Syntax-tree height above which codegen gives up: deeply nested
#: parenthesised expressions can overflow the CPython parser.
MAX_COMPILED_HEIGHT = 96

_CACHE_CAP = 16384

_term_cache: "OrderedDict[Tuple, CompiledTerm]" = OrderedDict()
_spec_cache: "OrderedDict[Tuple, CompiledSpec]" = OrderedDict()
_func_cache: Dict[Tuple, "_LateBound"] = {}


class _Fallback(Exception):
    """Internal: this term cannot be compiled; use the walker."""


class _LateBound:
    """A callable cell filled in after compilation (recursion support)."""

    __slots__ = ("fn",)

    def __init__(self) -> None:
        self.fn: Optional[Callable] = None

    def __call__(self, *args):
        return self.fn(*args)  # type: ignore[misc]


def _raise(message: str, *_evaluated) -> Value:
    """Lazy error site: reached only if the walker would also raise here.

    Extra positional arguments exist solely to force argument evaluation
    order parity (the walker evaluates actuals before an arity check).
    """
    raise EvaluationError(message)


def _normalize_funcs(
    funcs: Optional[FunctionDefs],
) -> Tuple[Dict[str, Tuple[Tuple[Term, ...], Term]], Tuple]:
    """Snapshot ``funcs`` into a plain dict plus a hashable cache key."""
    if not funcs:
        return {}, ()
    norm = {
        name: (tuple(params), body) for name, (params, body) in funcs.items()
    }
    key = tuple(
        sorted(
            ((name, pb[0], pb[1]) for name, pb in norm.items()),
            key=lambda entry: entry[0],
        )
    )
    return norm, key


class _Codegen:
    """Emits one Python expression per term, recursively."""

    def __init__(
        self,
        var_ids: Mapping[str, str],
        funcs: Dict[str, Tuple[Tuple[Term, ...], Term]],
        funcs_key: Tuple,
        open_ids: Mapping[str, str],
    ) -> None:
        self.var_ids = var_ids
        self.funcs = funcs
        self.funcs_key = funcs_key
        self.open_ids = open_ids
        self.namespace: Dict[str, object] = {"_raise": _raise}
        self._func_idents: Dict[str, str] = {}
        self.budget = MAX_EXPANDED_NODES

    def _func_ident(self, name: str) -> str:
        ident = self._func_idents.get(name)
        if ident is None:
            ident = f"_f{len(self._func_idents)}"
            self._func_idents[name] = ident
            self.namespace[ident] = _function_cell(
                name, self.funcs, self.funcs_key
            )
        return ident

    def gen(self, term: Term) -> str:
        self.budget -= 1
        if self.budget < 0:
            raise _Fallback
        kind = term.kind
        args = term.args
        if kind is Kind.CONST:
            return repr(term.payload)
        if kind is Kind.VAR:
            ident = self.var_ids.get(term.payload)  # type: ignore[arg-type]
            if ident is None:
                # Free variable outside the calling convention: the walker
                # handles (and correctly reports) the unbound case.
                raise _Fallback
            return ident
        if kind is Kind.ITE:
            cond, then, other = (self.gen(a) for a in args)
            return f"(({then}) if ({cond}) else ({other}))"
        if kind is Kind.AND:
            if not args:
                return "True"
            return "bool(" + " and ".join(f"({self.gen(a)})" for a in args) + ")"
        if kind is Kind.OR:
            if not args:
                return "False"
            return "bool(" + " or ".join(f"({self.gen(a)})" for a in args) + ")"
        if kind is Kind.NOT:
            return f"(not ({self.gen(args[0])}))"
        if kind is Kind.IMPLIES:
            left, right = self.gen(args[0]), self.gen(args[1])
            return f"((not ({left})) or bool({right}))"
        if kind is Kind.APP:
            name = term.payload
            open_ident = self.open_ids.get(name)  # type: ignore[arg-type]
            if open_ident is not None:
                actuals = ", ".join(f"({self.gen(a)})" for a in args)
                return f"{open_ident}({actuals})"
            if name not in self.funcs:
                # The walker raises before evaluating the actuals.
                return f"_raise({f'undefined function {name}'!r})"
            params, _ = self.funcs[name]  # type: ignore[index]
            if len(params) != len(args):
                # The walker evaluates the actuals first, then raises.
                actuals = ", ".join(f"({self.gen(a)})" for a in args)
                message = f"arity mismatch calling {name}"
                return f"_raise({message!r}, {actuals})"
            ident = self._func_ident(name)  # type: ignore[arg-type]
            actuals = ", ".join(f"({self.gen(a)})" for a in args)
            return f"{ident}({actuals})"
        if kind is Kind.ADD:
            if not args:
                return "0"
            return "(" + " + ".join(f"({self.gen(a)})" for a in args) + ")"
        if kind is Kind.SUB:
            return f"(({self.gen(args[0])}) - ({self.gen(args[1])}))"
        if kind is Kind.NEG:
            return f"(-({self.gen(args[0])}))"
        if kind is Kind.MUL:
            return f"(({self.gen(args[0])}) * ({self.gen(args[1])}))"
        if kind is Kind.GE:
            return f"(({self.gen(args[0])}) >= ({self.gen(args[1])}))"
        if kind is Kind.GT:
            return f"(({self.gen(args[0])}) > ({self.gen(args[1])}))"
        if kind is Kind.LE:
            return f"(({self.gen(args[0])}) <= ({self.gen(args[1])}))"
        if kind is Kind.LT:
            return f"(({self.gen(args[0])}) < ({self.gen(args[1])}))"
        if kind is Kind.EQ:
            return f"(({self.gen(args[0])}) == ({self.gen(args[1])}))"
        raise _Fallback  # pragma: no cover - the Kind enum is closed


def _compile_raw(
    term: Term,
    variables: Sequence[str],
    funcs: Dict[str, Tuple[Tuple[Term, ...], Term]],
    funcs_key: Tuple,
    open_funs: Sequence[str],
) -> Optional[Callable]:
    """Compile ``term`` to a positional callable, or None to use the walker.

    The callable's signature is ``(open_fun_0, ..., var_0, var_1, ...)`` —
    open functions (the synth-fun slot of a spec) lead, then one positional
    argument per variable, in the order given.  Variable and function names
    need not be Python identifiers (SyGuS allows ``x!``); they are mapped to
    generated parameter names.
    """
    if term.height > MAX_COMPILED_HEIGHT:
        return None
    var_ids = {name: f"v{i}" for i, name in enumerate(variables)}
    if len(var_ids) != len(variables):
        return None  # duplicate variable names: ambiguous convention
    open_ids = {name: f"g{i}" for i, name in enumerate(open_funs)}
    gen = _Codegen(var_ids, funcs, funcs_key, open_ids)
    try:
        expr = gen.gen(term)
    except _Fallback:
        return None
    params = list(open_ids.values()) + list(var_ids.values())
    source = "def _compiled({}):\n    return {}".format(
        ", ".join(params), expr
    )
    try:
        code = compile(source, "<repro.lang.compile>", "exec")
    except (SyntaxError, RecursionError, MemoryError):
        return None
    exec(code, gen.namespace)
    return gen.namespace["_compiled"]  # type: ignore[return-value]


def _function_cell(
    name: str,
    funcs: Dict[str, Tuple[Tuple[Term, ...], Term]],
    funcs_key: Tuple,
) -> _LateBound:
    """The compiled callable for an interpreted definition, late-bound.

    The cell is registered *before* its body compiles, so (mutually)
    recursive definitions resolve to the in-progress cell and terminate —
    at runtime they recurse exactly like the walker does.
    """
    key = (name, funcs_key)
    cell = _func_cache.get(key)
    if cell is not None:
        return cell
    cell = _LateBound()
    _func_cache[key] = cell
    params, body = funcs[name]
    param_names = tuple(p.payload for p in params)  # type: ignore[misc]
    fn = _compile_raw(body, param_names, funcs, funcs_key, ())
    if fn is None:

        def fn(*values, _body=body, _names=param_names, _funcs=funcs):
            return evaluate(_body, dict(zip(_names, values)), _funcs)

    cell.fn = fn
    return cell


class CompiledTerm:
    """A term closed into a Python callable over its free variables.

    ``variables`` fixes the positional calling convention.  :meth:`eval`
    takes an environment dict and falls back to the AST walker whenever the
    fast path cannot reproduce walker semantics (a variable missing from
    the environment, or a term the codegen refused)."""

    __slots__ = ("term", "variables", "fn", "funcs")

    def __init__(
        self,
        term: Term,
        variables: Tuple[str, ...],
        fn: Optional[Callable],
        funcs: Dict[str, Tuple[Tuple[Term, ...], Term]],
    ) -> None:
        self.term = term
        self.variables = variables
        self.fn = fn
        self.funcs = funcs

    @property
    def compiled(self) -> bool:
        """False when every evaluation routes through the walker."""
        return self.fn is not None

    def __call__(self, *values: Value) -> Value:
        if self.fn is not None:
            return self.fn(*values)
        return evaluate(
            self.term, dict(zip(self.variables, values)), self.funcs
        )

    def eval(self, env: Mapping[str, Value]) -> Value:
        fn = self.fn
        if fn is not None:
            try:
                values = [env[name] for name in self.variables]
            except KeyError:
                # Incomplete environment: the walker decides whether the
                # missing variable is actually reached (lazy ite/and/or).
                return evaluate(self.term, env, self.funcs)
            return fn(*values)
        return evaluate(self.term, env, self.funcs)

class CompiledSpec:
    """A spec compiled with the synth-fun left open as a callable slot.

    ``fn(body_fn, *values)`` evaluates the spec with every invocation of
    the open function dispatched to ``body_fn`` (itself typically a
    :class:`CompiledTerm` over the synth-fun's parameters)."""

    __slots__ = ("spec", "fun_name", "variables", "fn", "funcs")

    def __init__(
        self,
        spec: Term,
        fun_name: str,
        variables: Tuple[str, ...],
        fn: Optional[Callable],
        funcs: Dict[str, Tuple[Tuple[Term, ...], Term]],
    ) -> None:
        self.spec = spec
        self.fun_name = fun_name
        self.variables = variables
        self.fn = fn
        self.funcs = funcs

    @property
    def compiled(self) -> bool:
        return self.fn is not None

    def try_eval(
        self, body_fn: Callable, env: Mapping[str, Value]
    ) -> Optional[bool]:
        """The spec's truth value on ``env``, or None to use the walker.

        None does *not* mean false — it means this compiled artifact cannot
        answer (not compiled, or the environment misses a variable) and the
        caller must fall back to walker evaluation."""
        fn = self.fn
        if fn is None:
            return None
        values: List[Value] = []
        for name in self.variables:
            if name in env:
                values.append(env[name])
            else:
                return None
        return bool(fn(body_fn, *values))


def compile_term(
    term: Term,
    variables: Optional[Sequence[str]] = None,
    funcs: Optional[FunctionDefs] = None,
) -> CompiledTerm:
    """Compile ``term`` (cached globally on the interned term).

    ``variables`` fixes the positional argument order; by default the
    term's free variables in sorted name order.  ``funcs`` supplies
    interpreted definitions, compiled recursively and shared through their
    own cache."""
    funcs_norm, funcs_key = _normalize_funcs(funcs)
    if variables is None:
        names = tuple(sorted(v.payload for v in free_vars(term)))
    else:
        names = tuple(variables)
    key = (term, names, funcs_key)
    cached = _term_cache.get(key)
    if cached is not None:
        _term_cache.move_to_end(key)
        return cached
    fn = _compile_raw(term, names, funcs_norm, funcs_key, ())
    compiled = CompiledTerm(term, names, fn, funcs_norm)
    _term_cache[key] = compiled
    if len(_term_cache) > _CACHE_CAP:
        _term_cache.popitem(last=False)
    return compiled


def compile_spec(
    spec: Term,
    fun_name: str,
    variables: Sequence[str],
    funcs: Optional[FunctionDefs] = None,
) -> CompiledSpec:
    """Compile a spec with ``fun_name`` left open (cached globally)."""
    funcs_norm, funcs_key = _normalize_funcs(funcs)
    names = tuple(variables)
    key = (spec, fun_name, names, funcs_key)
    cached = _spec_cache.get(key)
    if cached is not None:
        _spec_cache.move_to_end(key)
        return cached
    fn = _compile_raw(spec, names, funcs_norm, funcs_key, (fun_name,))
    compiled = CompiledSpec(spec, fun_name, names, fn, funcs_norm)
    _spec_cache[key] = compiled
    if len(_spec_cache) > _CACHE_CAP:
        _spec_cache.popitem(last=False)
    return compiled
