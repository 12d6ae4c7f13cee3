"""Scalar expressions evaluated by the engine.

Expressions form a small AST (column references, literals, comparisons,
boolean connectives, arithmetic, function calls, ``BETWEEN``, ``IS NULL``).
Before execution an expression is *bound* against the column list of the
producing plan node, which resolves every column reference to a row index and
returns a plain Python closure — row evaluation then performs no name lookups.

Null semantics follow the pragmatic subset PostgreSQL users rely on for the
paper's queries: any comparison involving ``NULL`` is false, arithmetic with
``NULL`` yields ``NULL``, and ``IS NULL`` tests for it explicitly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.relation.errors import QueryError
from repro.relation.tuple import NULL, is_null
from repro.temporal.interval import Interval

Row = Tuple[Any, ...]
BoundExpression = Callable[[Row], Any]


# -- column resolution ------------------------------------------------------------


def resolve_column(reference: str, columns: Sequence[str]) -> int:
    """Resolve a (possibly qualified) column reference to a row index.

    Resolution mirrors SQL name lookup: an exact match wins; an *unqualified*
    reference matches any column whose unqualified part equals it, provided
    the match is unique; a *qualified* reference (``b.ssn``) only matches the
    identically qualified column or an unqualified column of the same base
    name — it never matches a column carrying a different qualifier.
    """
    if reference in columns:
        return list(columns).index(reference)

    base = reference.rsplit(".", 1)[-1]
    qualified = "." in reference
    if qualified:
        candidates = [i for i, c in enumerate(columns) if c == base]
    else:
        candidates = [i for i, c in enumerate(columns) if c.rsplit(".", 1)[-1] == base]
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise QueryError(f"unknown column {reference!r}; available: {list(columns)}")
    raise QueryError(f"ambiguous column {reference!r}; candidates: "
                     f"{[columns[i] for i in candidates]}")


# -- function registry --------------------------------------------------------------


def _dur(*args: Any) -> Any:
    """``DUR(ts, te)`` or ``DUR(interval)`` — duration of a period."""
    if len(args) == 1:
        value = args[0]
        if is_null(value):
            return NULL
        if isinstance(value, Interval):
            return value.duration()
        raise QueryError(f"DUR() with one argument expects an interval, got {value!r}")
    if len(args) == 2:
        start, end = args
        if is_null(start) or is_null(end):
            return NULL
        return end - start
    raise QueryError("DUR() takes one interval or two points")


def _greatest(*args: Any) -> Any:
    live = [a for a in args if not is_null(a)]
    return max(live) if live else NULL


def _least(*args: Any) -> Any:
    live = [a for a in args if not is_null(a)]
    return min(live) if live else NULL


def _coalesce(*args: Any) -> Any:
    for a in args:
        if not is_null(a):
            return a
    return NULL


def _abs(value: Any) -> Any:
    return NULL if is_null(value) else abs(value)


def _overlaps(ts1: Any, te1: Any, ts2: Any, te2: Any) -> bool:
    """``OVERLAPS(ts1, te1, ts2, te2)`` over half-open periods."""
    if is_null(ts1) or is_null(te1) or is_null(ts2) or is_null(te2):
        return False
    return ts1 < te2 and ts2 < te1


#: Scalar functions available to SQL queries and algebraic plans.
FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "DUR": _dur,
    "GREATEST": _greatest,
    "LEAST": _least,
    "COALESCE": _coalesce,
    "ABS": _abs,
    "OVERLAPS": _overlaps,
}


# -- expression AST -----------------------------------------------------------------


class Expression:
    """Base class of all scalar expressions."""

    def bind(self, columns: Sequence[str]) -> BoundExpression:
        raise NotImplementedError

    def references(self) -> List[str]:
        """Column references used by the expression (for planning heuristics)."""
        return []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Literal(Expression):
    """A constant value."""

    def __init__(self, value: Any):
        self.value = value

    def bind(self, columns: Sequence[str]) -> BoundExpression:
        value = self.value
        return lambda row: value

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


class Column(Expression):
    """A (possibly qualified) column reference."""

    def __init__(self, name: str):
        self.name = name

    def bind(self, columns: Sequence[str]) -> BoundExpression:
        index = resolve_column(self.name, columns)
        return lambda row: row[index]

    def references(self) -> List[str]:
        return [self.name]

    def __repr__(self) -> str:
        return f"Column({self.name!r})"


class IndexColumn(Expression):
    """A column reference by position, bypassing name resolution.

    Plan builders (notably the expansion of Align/Normalize nodes) use this
    to address columns of intermediate results unambiguously even when two
    inputs carry identical column names.
    """

    def __init__(self, index: int, name: str = ""):
        self.index = index
        self.name = name

    def bind(self, columns: Sequence[str]) -> BoundExpression:
        index = self.index
        if index >= len(columns):
            raise QueryError(
                f"column index {index} out of range for {len(columns)} columns"
            )
        return lambda row: row[index]

    def references(self) -> List[str]:
        return [self.name] if self.name else []

    def __repr__(self) -> str:
        return f"IndexColumn({self.index})"


class Comparison(Expression):
    """Binary comparison; any ``NULL`` operand makes the result false."""

    _OPERATORS: Dict[str, Callable[[Any, Any], bool]] = {
        "=": lambda a, b: a == b,
        "<>": lambda a, b: a != b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }

    def __init__(self, operator: str, left: Expression, right: Expression):
        if operator not in self._OPERATORS:
            raise QueryError(f"unknown comparison operator {operator!r}")
        self.operator = operator
        self.left = left
        self.right = right

    def bind(self, columns: Sequence[str]) -> BoundExpression:
        op = self._OPERATORS[self.operator]
        left = self.left.bind(columns)
        right = self.right.bind(columns)

        def evaluate(row: Row) -> bool:
            a = left(row)
            b = right(row)
            if is_null(a) or is_null(b):
                return False
            return op(a, b)

        return evaluate

    def references(self) -> List[str]:
        return self.left.references() + self.right.references()

    def __repr__(self) -> str:
        return f"Comparison({self.operator!r}, {self.left!r}, {self.right!r})"


class And(Expression):
    def __init__(self, *operands: Expression):
        self.operands = list(operands)

    def bind(self, columns: Sequence[str]) -> BoundExpression:
        bound = [o.bind(columns) for o in self.operands]
        return lambda row: all(b(row) for b in bound)

    def references(self) -> List[str]:
        return [r for o in self.operands for r in o.references()]

    def __repr__(self) -> str:
        return f"And({', '.join(map(repr, self.operands))})"


class Or(Expression):
    def __init__(self, *operands: Expression):
        self.operands = list(operands)

    def bind(self, columns: Sequence[str]) -> BoundExpression:
        bound = [o.bind(columns) for o in self.operands]
        return lambda row: any(b(row) for b in bound)

    def references(self) -> List[str]:
        return [r for o in self.operands for r in o.references()]

    def __repr__(self) -> str:
        return f"Or({', '.join(map(repr, self.operands))})"


class Not(Expression):
    def __init__(self, operand: Expression):
        self.operand = operand

    def bind(self, columns: Sequence[str]) -> BoundExpression:
        bound = self.operand.bind(columns)
        return lambda row: not bound(row)

    def references(self) -> List[str]:
        return self.operand.references()

    def __repr__(self) -> str:
        return f"Not({self.operand!r})"


class Arithmetic(Expression):
    """Binary arithmetic; ``NULL`` operands propagate."""

    _OPERATORS: Dict[str, Callable[[Any, Any], Any]] = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
        "%": lambda a, b: a % b,
    }

    def __init__(self, operator: str, left: Expression, right: Expression):
        if operator not in self._OPERATORS:
            raise QueryError(f"unknown arithmetic operator {operator!r}")
        self.operator = operator
        self.left = left
        self.right = right

    def bind(self, columns: Sequence[str]) -> BoundExpression:
        op = self._OPERATORS[self.operator]
        left = self.left.bind(columns)
        right = self.right.bind(columns)

        def evaluate(row: Row) -> Any:
            a = left(row)
            b = right(row)
            if is_null(a) or is_null(b):
                return NULL
            return op(a, b)

        return evaluate

    def references(self) -> List[str]:
        return self.left.references() + self.right.references()

    def __repr__(self) -> str:
        return f"Arithmetic({self.operator!r}, {self.left!r}, {self.right!r})"


class Negate(Expression):
    def __init__(self, operand: Expression):
        self.operand = operand

    def bind(self, columns: Sequence[str]) -> BoundExpression:
        bound = self.operand.bind(columns)

        def evaluate(row: Row) -> Any:
            value = bound(row)
            return NULL if is_null(value) else -value

        return evaluate

    def references(self) -> List[str]:
        return self.operand.references()


class FunctionCall(Expression):
    """Call of a registered scalar function (``DUR``, ``GREATEST``, ...)."""

    def __init__(self, name: str, arguments: Sequence[Expression]):
        self.name = name.upper()
        self.arguments = list(arguments)
        if self.name not in FUNCTIONS:
            raise QueryError(f"unknown function {name!r}; available: {sorted(FUNCTIONS)}")

    def bind(self, columns: Sequence[str]) -> BoundExpression:
        function = FUNCTIONS[self.name]
        bound = [a.bind(columns) for a in self.arguments]
        return lambda row: function(*[b(row) for b in bound])

    def references(self) -> List[str]:
        return [r for a in self.arguments for r in a.references()]

    def __repr__(self) -> str:
        return f"FunctionCall({self.name!r}, {self.arguments!r})"


class Between(Expression):
    """``value BETWEEN low AND high`` (false when any operand is null)."""

    def __init__(self, value: Expression, low: Expression, high: Expression):
        self.value = value
        self.low = low
        self.high = high

    def bind(self, columns: Sequence[str]) -> BoundExpression:
        value = self.value.bind(columns)
        low = self.low.bind(columns)
        high = self.high.bind(columns)

        def evaluate(row: Row) -> bool:
            v = value(row)
            lo = low(row)
            hi = high(row)
            if is_null(v) or is_null(lo) or is_null(hi):
                return False
            return lo <= v <= hi

        return evaluate

    def references(self) -> List[str]:
        return self.value.references() + self.low.references() + self.high.references()

    def __repr__(self) -> str:
        return f"Between({self.value!r}, {self.low!r}, {self.high!r})"


class IsNull(Expression):
    def __init__(self, operand: Expression, negated: bool = False):
        self.operand = operand
        self.negated = negated

    def bind(self, columns: Sequence[str]) -> BoundExpression:
        bound = self.operand.bind(columns)
        negated = self.negated
        return lambda row: (not is_null(bound(row))) if negated else is_null(bound(row))

    def references(self) -> List[str]:
        return self.operand.references()


class PythonPredicate(Expression):
    """Escape hatch: an arbitrary Python callable over named column values.

    The callable receives a dict ``{column base name: value}``; the analyzer
    uses this to splice correlated sub-queries (``EXISTS``) and callers of the
    algebraic API can use it for predicates that have no SQL surface syntax.
    """

    def __init__(self, function: Callable[[Dict[str, Any]], Any], used_columns: Optional[Sequence[str]] = None):
        self.function = function
        self.used_columns = list(used_columns) if used_columns is not None else None

    def bind(self, columns: Sequence[str]) -> BoundExpression:
        names = [c.rsplit(".", 1)[-1] for c in columns]
        full_names = list(columns)
        function = self.function

        def evaluate(row: Row) -> Any:
            env = dict(zip(names, row))
            env.update(zip(full_names, row))
            return function(env)

        return evaluate

    def references(self) -> List[str]:
        return list(self.used_columns or [])


# -- helpers used by plan builders ----------------------------------------------------


def column(name: str) -> Column:
    """Shorthand constructor used by plan builders."""
    return Column(name)


def literal(value: Any) -> Literal:
    """Shorthand constructor used by plan builders."""
    return Literal(value)


def conjunction(expressions: Sequence[Expression]) -> Optional[Expression]:
    """AND together a list of expressions (``None`` for the empty list)."""
    live = [e for e in expressions if e is not None]
    if not live:
        return None
    if len(live) == 1:
        return live[0]
    return And(*live)


def conjuncts_of(condition: Expression) -> List[Expression]:
    """The operands of ``condition``'s top-level conjunction, flattened."""
    if isinstance(condition, And):
        return [c for operand in condition.operands for c in conjuncts_of(operand)]
    return [condition]


def equijoin_only(condition: Optional[Expression],
                  left_columns: Sequence[str],
                  right_columns: Sequence[str]) -> bool:
    """Whether ``condition`` is *nothing but* cross-side equality conjuncts.

    ``True`` for ``None`` and for any top-level conjunction in which every
    conjunct is a ``left column = right column`` comparison (in either
    order).  This is the eligibility test of the columnar adjustment plans:
    such a condition is fully captured by dictionary-encoded key codes,
    whereas any residual predicate would need per-row evaluation.
    """
    if condition is None:
        return True
    keys = equijoin_keys(condition, left_columns, right_columns)
    return len(keys) == len(conjuncts_of(condition))


def equijoin_keys(condition: Optional[Expression],
                  left_columns: Sequence[str],
                  right_columns: Sequence[str]) -> List[Tuple[str, str]]:
    """Extract ``left = right`` equality pairs usable as hash/merge join keys.

    Walks the top-level conjunction of ``condition`` and returns pairs of
    column names where one side resolves into the left input and the other
    into the right input.  Everything else stays as a residual predicate.
    """
    if condition is None:
        return []

    def side(reference: str) -> Optional[str]:
        try:
            resolve_column(reference, left_columns)
            return "left"
        except QueryError:
            pass
        try:
            resolve_column(reference, right_columns)
            return "right"
        except QueryError:
            return None

    keys: List[Tuple[str, str]] = []
    for conjunct in conjuncts_of(condition):
        if not isinstance(conjunct, Comparison) or conjunct.operator != "=":
            continue
        if not isinstance(conjunct.left, Column) or not isinstance(conjunct.right, Column):
            continue
        left_side = side(conjunct.left.name)
        right_side = side(conjunct.right.name)
        if left_side == "left" and right_side == "right":
            keys.append((conjunct.left.name, conjunct.right.name))
        elif left_side == "right" and right_side == "left":
            keys.append((conjunct.right.name, conjunct.left.name))
    return keys
