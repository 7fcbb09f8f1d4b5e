"""Hash-consed term AST for the CLIA language.

Every term is interned: constructing the same term twice yields the *same*
Python object, so ``==`` (identity) is constant-time and terms can key
dictionaries and sets without deep traversals.  Construction is performed
through :func:`Term.make`; the convenience constructors in
:mod:`repro.lang.builders` are the intended public entry points.
"""

from __future__ import annotations

import enum
from typing import Iterator, Optional, Tuple, Union

from repro.lang.sorts import BOOL, INT, Sort


class Kind(enum.Enum):
    """Syntactic kinds of CLIA terms."""

    CONST = "const"  # payload: int or bool value
    VAR = "var"  # payload: name
    ADD = "+"
    SUB = "-"
    NEG = "neg"
    MUL = "*"
    ITE = "ite"
    GE = ">="
    GT = ">"
    LE = "<="
    LT = "<"
    EQ = "="
    NOT = "not"
    AND = "and"
    OR = "or"
    IMPLIES = "=>"
    APP = "app"  # payload: function name; args are the actuals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Kind.{self.name}"


_COMPARISONS = frozenset({Kind.GE, Kind.GT, Kind.LE, Kind.LT})
_BOOL_CONNECTIVES = frozenset({Kind.NOT, Kind.AND, Kind.OR, Kind.IMPLIES})
_ARITH_OPS = frozenset({Kind.ADD, Kind.SUB, Kind.NEG, Kind.MUL})

Payload = Union[int, bool, str, None]


class Term:
    """An immutable, interned CLIA term.

    Attributes:
        kind: the syntactic :class:`Kind`.
        args: child terms (a tuple, possibly empty).
        payload: ``int``/``bool`` for constants, ``str`` name for variables
            and applications, ``None`` otherwise.
        sort: the :class:`~repro.lang.sorts.Sort` of the term.
    """

    __slots__ = ("kind", "args", "payload", "sort", "_hash", "_height", "_size")

    _interned: dict = {}

    def __new__(
        cls,
        kind: Kind,
        args: Tuple["Term", ...],
        payload: Payload,
        sort: Sort,
    ) -> "Term":
        key = (kind, args, payload, sort)
        existing = cls._interned.get(key)
        if existing is not None:
            return existing
        term = super().__new__(cls)
        term.kind = kind
        term.args = args
        term.payload = payload
        term.sort = sort
        term._hash = hash(key)
        term._height = 0
        term._size = 0
        cls._interned[key] = term
        return term

    # Interning makes the default identity `__eq__`/`__hash__` structurally
    # correct, but we pin __hash__ to the precomputed value for speed.
    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def make(
        kind: Kind,
        args: Tuple["Term", ...] = (),
        payload: Payload = None,
        sort: Optional[Sort] = None,
    ) -> "Term":
        """Construct (or retrieve) an interned term, inferring the sort.

        A term already interned passed the well-formedness check when it was
        built, so only a new key is checked.  The payload's type must match
        too: ``1.0 == 1``, but a float constant is still rejected.
        """
        if sort is None:
            sort = _infer_sort(kind, args, payload)
        existing = Term._interned.get((kind, args, payload, sort))
        if existing is not None and type(existing.payload) is type(payload):
            return existing
        _check_well_formed(kind, args, payload, sort)
        return Term(kind, args, payload, sort)

    # -- Structural helpers ------------------------------------------------

    @property
    def name(self) -> str:
        """Name of a variable or applied function."""
        if self.kind not in (Kind.VAR, Kind.APP):
            raise ValueError(f"term of kind {self.kind} has no name")
        return self.payload  # type: ignore[return-value]

    @property
    def value(self) -> Union[int, bool]:
        """Value of a constant."""
        if self.kind is not Kind.CONST:
            raise ValueError(f"term of kind {self.kind} has no value")
        return self.payload  # type: ignore[return-value]

    @property
    def height(self) -> int:
        """Height of the syntax tree (leaves have height 1)."""
        if self._height == 0:
            if not self.args:
                self._height = 1
            else:
                self._height = 1 + max(child.height for child in self.args)
        return self._height

    @property
    def size(self) -> int:
        """Number of nodes of the syntax tree."""
        if self._size == 0:
            self._size = 1 + sum(child.size for child in self.args)
        return self._size

    def __iter__(self) -> Iterator["Term"]:
        return iter(self.args)

    def __repr__(self) -> str:
        from repro.lang.printer import to_sexpr

        return to_sexpr(self)


def _infer_sort(kind: Kind, args: Tuple[Term, ...], payload: Payload) -> Sort:
    if kind is Kind.CONST:
        return BOOL if isinstance(payload, bool) else INT
    if kind is Kind.VAR:
        raise ValueError("variable construction requires an explicit sort")
    if kind is Kind.APP:
        raise ValueError("application construction requires an explicit sort")
    if kind in _ARITH_OPS:
        return INT
    if kind in _COMPARISONS or kind in _BOOL_CONNECTIVES or kind is Kind.EQ:
        return BOOL
    if kind is Kind.ITE:
        if len(args) != 3:
            raise ValueError("ite requires exactly three arguments")
        return args[1].sort
    raise ValueError(f"cannot infer sort for kind {kind}")


def _check_well_formed(
    kind: Kind, args: Tuple[Term, ...], payload: Payload, sort: Sort
) -> None:
    if kind is Kind.CONST:
        if args:
            raise ValueError("constants take no arguments")
        if not isinstance(payload, (int, bool)):
            raise ValueError(f"bad constant payload: {payload!r}")
        return
    if kind is Kind.VAR:
        if args or not isinstance(payload, str):
            raise ValueError("variables take a name and no arguments")
        return
    if kind is Kind.APP:
        if not isinstance(payload, str):
            raise ValueError("applications require a function name")
        return
    if kind in _ARITH_OPS:
        if kind is Kind.NEG and len(args) != 1:
            raise ValueError("negation is unary")
        if kind in (Kind.SUB, Kind.MUL) and len(args) != 2:
            raise ValueError(f"{kind.value} is binary")
        if kind is Kind.ADD and len(args) < 2:
            raise ValueError("addition takes at least two arguments")
        for child in args:
            if child.sort is not INT:
                raise ValueError(f"arithmetic over non-Int child: {child!r}")
        return
    if kind in _COMPARISONS or kind is Kind.EQ:
        if len(args) != 2:
            raise ValueError("comparisons are binary")
        if kind is not Kind.EQ and (args[0].sort is not INT or args[1].sort is not INT):
            raise ValueError("ordering comparisons require Int children")
        if kind is Kind.EQ and args[0].sort is not args[1].sort:
            raise ValueError("equality requires same-sorted children")
        return
    if kind in _BOOL_CONNECTIVES:
        if kind is Kind.NOT and len(args) != 1:
            raise ValueError("not is unary")
        if kind is Kind.IMPLIES and len(args) != 2:
            raise ValueError("=> is binary")
        if kind in (Kind.AND, Kind.OR) and len(args) < 2:
            raise ValueError(f"{kind.value} takes at least two arguments")
        for child in args:
            if child.sort is not BOOL:
                raise ValueError(f"connective over non-Bool child: {child!r}")
        return
    if kind is Kind.ITE:
        if len(args) != 3:
            raise ValueError("ite is ternary")
        if args[0].sort is not BOOL:
            raise ValueError("ite condition must be Bool")
        if args[1].sort is not args[2].sort:
            raise ValueError("ite branches must agree on sort")
        return
    raise ValueError(f"unknown kind {kind}")
