"""Scalar expressions evaluated by the engine.

Expressions form a small AST (column references, literals, comparisons,
boolean connectives, arithmetic, function calls, ``BETWEEN``, ``IS NULL``).
Before execution an expression is *bound* against the column list of the
producing plan node, which resolves every column reference to a row index and
returns a plain Python closure — row evaluation then performs no name lookups.

Null semantics follow the pragmatic subset PostgreSQL users rely on for the
paper's queries: any comparison involving ``NULL`` is false, arithmetic with
``NULL`` yields ``NULL``, and ``IS NULL`` tests for it explicitly.

:func:`compile_pair_mask` is the batch twin of ``bind`` for the columnar
adjustment: the common integer grammar as one NumPy boolean mask over a
batch of candidate row pairs, with the same null semantics.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.relation.errors import QueryError
from repro.relation.tuple import NULL, compare_values, is_null
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
    """Binary comparison; any ``NULL`` operand makes the result false.

    Operands of types Python does not order (``1 < 'a'``) compare in
    ``ORDER BY``'s total order (:func:`~repro.relation.tuple.compare_values`),
    as SQLite compares across storage classes.
    """

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
            try:
                return op(a, b)
            except TypeError:
                return op(compare_values(a, b), 0)

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


def _operand_error(symbol: str, *operands: Any) -> QueryError:
    types = " and ".join(type(operand).__name__ for operand in operands)
    return QueryError(f"operator {symbol} is not defined for {types}")


class Arithmetic(Expression):
    """Binary arithmetic; ``NULL`` operands propagate, operands the operator
    does not accept raise :class:`QueryError`."""

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
        symbol = self.operator
        op = self._OPERATORS[symbol]
        left = self.left.bind(columns)
        right = self.right.bind(columns)

        def evaluate(row: Row) -> Any:
            a = left(row)
            b = right(row)
            if is_null(a) or is_null(b):
                return NULL
            try:
                return op(a, b)
            except TypeError:
                raise _operand_error(symbol, a, b) from None

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
            if is_null(value):
                return NULL
            try:
                return -value
            except TypeError:
                raise _operand_error("-", value) from None

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
            try:
                return lo <= v <= hi
            except TypeError:  # across types: Comparison's total order
                return compare_values(lo, v) <= 0 and compare_values(v, hi) <= 0

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


# -- the same predicates as NumPy masks over candidate pairs ----------------------------

#: ``(left rows, right rows, left positions, right positions) -> mask``: the
#: predicate over the combined rows ``left_rows[li[k]] + right_rows[ri[k]]``
#: as a boolean array, or ``None`` when this batch cannot be evaluated
#: exactly in ``int64`` (then the bound expression runs per pair instead).
PairMask = Callable[[Sequence[Row], Sequence[Row], Any, Any], Optional[Any]]

_INT64_MAX = 2**63 - 1

_MASK_COMPARISONS: Dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class _Declined(Exception):
    """This batch's values cannot be evaluated exactly in ``int64``."""


class _Ints(NamedTuple):
    """An integer expression over the pairs: values, ``ω`` flags, size bound.

    ``nulls`` is ``None`` when no pair is null; where it is set, ``values``
    holds an arbitrary in-range number.  ``bound`` caps ``|value|`` over the
    whole input, so ``+``/``−`` can prove they do not wrap before running.
    """

    values: Any
    nulls: Any
    bound: int


class _PairBatch:
    """The candidate pairs of one execution; each referenced column is
    gathered once, over the side's rows, then indexed by the positions."""

    def __init__(self, np: Any, left_rows: Sequence[Row], right_rows: Sequence[Row],
                 li: Any, ri: Any, left_width: int):
        self.np = np
        self.size = len(li)
        self._sides = ((left_rows, li), (right_rows, ri))
        self._left_width = left_width
        self._columns: Dict[int, _Ints] = {}

    def column(self, index: int) -> _Ints:
        gathered = self._columns.get(index)
        if gathered is None:
            gathered = self._columns[index] = self._gather(index)
        return gathered

    def _gather(self, index: int) -> _Ints:
        np = self.np
        side = 0 if index < self._left_width else 1
        rows, positions = self._sides[side]
        values = [row[index - side * self._left_width] for row in rows]
        nulls = None
        others = set(map(type, values)) - {int}
        if others:
            if others - {type(NULL), type(None)}:
                raise _Declined  # str, float, bool, ...: Python semantics differ
            flags = [is_null(v) for v in values]
            values = [0 if flag else v for v, flag in zip(values, flags)]
            nulls = np.asarray(flags, dtype=bool)[positions]
        try:
            array = np.asarray(values, dtype=np.int64)
        except OverflowError:
            raise _Declined from None
        bound = max(-int(array.min()), int(array.max())) if array.size else 0
        return _Ints(array[positions], nulls, bound)


def compile_pair_mask(expression: Expression, left_columns: Sequence[str],
                      right_columns: Sequence[str]) -> Optional[PairMask]:
    """Compile ``expression`` — bound against ``left_columns + right_columns``,
    like a join condition — into a :data:`PairMask`.

    The grammar: ``Column``/``IndexColumn``, ``int`` literals, ``+``, ``−``
    and unary ``−``, two-argument ``DUR``, the six comparisons, ``BETWEEN``,
    ``AND``/``OR``/``NOT`` and ``IS [NOT] NULL``, with the engine's null
    semantics (a null operand makes a comparison or ``BETWEEN`` false and
    propagates through arithmetic).  Anything else — ``*``, ``/``, ``%``,
    other functions, other literals, :class:`PythonPredicate` — returns
    ``None``; so does the mask itself, at run time, for a column holding
    anything but ``int``/``ω`` or magnitudes where ``int64`` arithmetic could
    wrap.  Either way ``expression.bind`` is the exact per-pair twin.
    """
    columns = list(left_columns) + list(right_columns)
    try:
        predicate = _mask_predicate(expression, columns)
    except QueryError:
        return None
    if predicate is None:
        return None
    left_width = len(left_columns)

    def mask(left_rows: Sequence[Row], right_rows: Sequence[Row], li: Any, ri: Any) -> Any:
        from repro.columnar.runtime import numpy_or_none

        np = numpy_or_none()
        if np is None:
            return None
        try:
            return predicate(_PairBatch(np, left_rows, right_rows, li, ri, left_width))
        except _Declined:
            return None

    return mask


_Mask = Callable[[_PairBatch], Any]
_IntsOf = Callable[[_PairBatch], _Ints]


def _mask_predicate(expression: Expression, columns: Sequence[str]) -> Optional[_Mask]:
    """A boolean-valued expression as a mask builder (``None``: not compiled)."""
    if isinstance(expression, Comparison):
        compare = _MASK_COMPARISONS[expression.operator]
        operands = _mask_ints_all([expression.left, expression.right], columns)
        if operands is None:
            return None
        a, b = operands

        def comparison(batch: _PairBatch) -> Any:
            left, right = a(batch), b(batch)
            return _non_null(compare(left.values, right.values), left, right)

        return comparison
    if isinstance(expression, Between):
        operands = _mask_ints_all([expression.value, expression.low, expression.high], columns)
        if operands is None:
            return None
        v, lo, hi = operands

        def between(batch: _PairBatch) -> Any:
            value, low, high = v(batch), lo(batch), hi(batch)
            inside = (low.values <= value.values) & (value.values <= high.values)
            return _non_null(inside, value, low, high)

        return between
    if isinstance(expression, (And, Or)):
        parts = [_mask_predicate(o, columns) for o in expression.operands]
        if not parts or any(part is None for part in parts):
            return None
        combine = operator.and_ if isinstance(expression, And) else operator.or_
        return lambda batch: functools.reduce(combine, [part(batch) for part in parts])
    if isinstance(expression, Not):
        inner = _mask_predicate(expression.operand, columns)
        if inner is None:
            return None
        return lambda batch: ~inner(batch)
    if isinstance(expression, IsNull):
        operand = _mask_ints(expression.operand, columns)
        if operand is None:
            return None
        negated = expression.negated

        def null_test(batch: _PairBatch) -> Any:
            nulls = operand(batch).nulls
            if nulls is None:
                nulls = batch.np.zeros(batch.size, dtype=bool)
            return ~nulls if negated else nulls

        return null_test
    return None


def _mask_ints_all(expressions: Sequence[Expression],
                   columns: Sequence[str]) -> Optional[List[_IntsOf]]:
    compiled: List[_IntsOf] = []
    for expression in expressions:
        builder = _mask_ints(expression, columns)
        if builder is None:
            return None
        compiled.append(builder)
    return compiled


def _mask_ints(expression: Expression, columns: Sequence[str]) -> Optional[_IntsOf]:
    """An integer-valued expression as an :class:`_Ints` builder."""
    if isinstance(expression, (Column, IndexColumn)):
        if isinstance(expression, Column):
            index = resolve_column(expression.name, columns)
        elif expression.index < len(columns):
            index = expression.index
        else:
            return None
        return lambda batch: batch.column(index)
    if isinstance(expression, Literal):
        value = expression.value
        if type(value) is not int or abs(value) > _INT64_MAX:
            return None
        return lambda batch: _Ints(batch.np.full(batch.size, value, dtype=batch.np.int64),
                                   None, abs(value))
    if isinstance(expression, Arithmetic) and expression.operator in ("+", "-"):
        operands = _mask_ints_all([expression.left, expression.right], columns)
        if operands is None:
            return None
        a, b = operands
        plus = expression.operator == "+"
        return lambda batch: _add(a(batch), b(batch), plus)
    if isinstance(expression, FunctionCall) and expression.name == "DUR":
        operands = _mask_ints_all(expression.arguments, columns)
        if operands is None or len(operands) != 2:
            return None
        start, end = operands
        return lambda batch: _add(end(batch), start(batch), plus=False)
    if isinstance(expression, Negate):
        operand = _mask_ints(expression.operand, columns)
        if operand is None:
            return None
        zero = _Ints(0, None, 0)
        return lambda batch: _add(zero, operand(batch), plus=False)
    return None


def _add(a: _Ints, b: _Ints, plus: bool) -> _Ints:
    """``a + b`` or ``a − b``, declined unless provably free of wrap-around."""
    bound = a.bound + b.bound
    if bound > _INT64_MAX:
        raise _Declined
    values = a.values + b.values if plus else a.values - b.values
    if a.nulls is None or b.nulls is None:
        nulls = b.nulls if a.nulls is None else a.nulls
    else:
        nulls = a.nulls | b.nulls
    return _Ints(values, nulls, bound)


def _non_null(mask: Any, *operands: _Ints) -> Any:
    """``mask`` with every pair that has a null operand switched off."""
    for operand in operands:
        if operand.nulls is not None:
            mask = mask & ~operand.nulls
    return mask


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


def equijoin_residual(condition: Optional[Expression],
                      left_columns: Sequence[str],
                      right_columns: Sequence[str]) -> Optional[Expression]:
    """``condition`` without the conjuncts :func:`equijoin_keys` extracts.

    ``None`` when nothing is left — no condition, or nothing but cross-side
    equalities, which dictionary-encoded key codes capture completely.
    What remains is the residual θ the columnar adjustment evaluates per
    candidate pair.
    """
    if condition is None:
        return None
    return conjunction(
        [
            conjunct
            for conjunct in conjuncts_of(condition)
            if _equijoin_pair(conjunct, left_columns, right_columns) is None
        ]
    )


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
    pairs = (_equijoin_pair(c, left_columns, right_columns) for c in conjuncts_of(condition))
    return [pair for pair in pairs if pair is not None]


def _equijoin_pair(conjunct: Expression,
                   left_columns: Sequence[str],
                   right_columns: Sequence[str]) -> Optional[Tuple[str, str]]:
    """``(left name, right name)`` when ``conjunct`` is a cross-side equality."""
    if not isinstance(conjunct, Comparison) or conjunct.operator != "=":
        return None
    if not isinstance(conjunct.left, Column) or not isinstance(conjunct.right, Column):
        return None

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

    left_side = side(conjunct.left.name)
    right_side = side(conjunct.right.name)
    if left_side == "left" and right_side == "right":
        return conjunct.left.name, conjunct.right.name
    if left_side == "right" and right_side == "left":
        return conjunct.right.name, conjunct.left.name
    return None
