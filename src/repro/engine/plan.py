"""Logical query plans.

The analyzer (and the algebraic plan builders) produce trees of the nodes
below; the optimizer turns them into physical executor trees.  Logical nodes
know their output column names — the only piece of schema the engine tracks.

Two nodes are specific to this paper: :class:`Align` and :class:`Normalize`
represent the temporal primitives.  They appear as single nodes in the
logical plan (like the custom PostgreSQL node of Sec. 6) and are expanded by
the planner into *group construction join → partition/sort → plane sweep*,
with the join strategy chosen by the planner's join rule.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.engine.expressions import Expression
from repro.relation.errors import PlanError


class LogicalPlan:
    """Base class of logical plan nodes."""

    @property
    def columns(self) -> List[str]:
        raise NotImplementedError

    def children(self) -> List[LogicalPlan]:
        return []

    def explain(self, indent: int = 0) -> str:
        """Human-readable plan tree (used by ``EXPLAIN`` and in tests)."""
        line = " " * indent + self.describe()
        return "\n".join([line] + [child.explain(indent + 2) for child in self.children()])

    def describe(self) -> str:
        return type(self).__name__


class Scan(LogicalPlan):
    """Scan of a named base table, optionally under an alias."""

    def __init__(self, table_name: str, table_columns: Sequence[str], alias: Optional[str] = None):
        self.table_name = table_name
        self.alias = alias
        self._table_columns = list(table_columns)

    @property
    def columns(self) -> List[str]:
        if self.alias:
            return [f"{self.alias}.{c}" for c in self._table_columns]
        return list(self._table_columns)

    def describe(self) -> str:
        alias = f" AS {self.alias}" if self.alias else ""
        return f"Scan({self.table_name}{alias})"


class Values(LogicalPlan):
    """Inline rows (used for tests and for small constant relations)."""

    def __init__(self, columns: Sequence[str], rows: Sequence[Tuple[Any, ...]]):
        self._columns = list(columns)
        self.rows = [tuple(r) for r in rows]

    @property
    def columns(self) -> List[str]:
        return list(self._columns)

    def describe(self) -> str:
        return f"Values({len(self.rows)} rows)"


class Filter(LogicalPlan):
    def __init__(self, child: LogicalPlan, condition: Expression):
        self.child = child
        self.condition = condition

    @property
    def columns(self) -> List[str]:
        return self.child.columns

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        return f"Filter({self.condition!r})"


class Project(LogicalPlan):
    """Projection / computation of output expressions (no duplicate removal)."""

    def __init__(self, child: LogicalPlan, expressions: Sequence[Tuple[Expression, str]]):
        self.child = child
        self.expressions = list(expressions)

    @property
    def columns(self) -> List[str]:
        return [name for _, name in self.expressions]

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        return f"Project({', '.join(name for _, name in self.expressions)})"


class Rename(LogicalPlan):
    """Re-label the output columns of a subplan (subquery aliases)."""

    def __init__(self, child: LogicalPlan, columns: Sequence[str]):
        if len(columns) != len(child.columns):
            raise PlanError(
                f"Rename expects {len(child.columns)} column names, got {len(columns)}"
            )
        self.child = child
        self._columns = list(columns)

    @property
    def columns(self) -> List[str]:
        return list(self._columns)

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        return f"Rename({', '.join(self._columns)})"


JOIN_KINDS = ("inner", "left", "right", "full", "anti", "semi", "cross")


class Join(LogicalPlan):
    def __init__(
        self,
        left: LogicalPlan,
        right: LogicalPlan,
        kind: str = "inner",
        condition: Optional[Expression] = None,
    ):
        if kind not in JOIN_KINDS:
            raise PlanError(f"unknown join kind {kind!r}")
        self.left = left
        self.right = right
        self.kind = kind
        self.condition = condition

    @property
    def columns(self) -> List[str]:
        if self.kind in ("anti", "semi"):
            return self.left.columns
        return self.left.columns + self.right.columns

    def children(self) -> List[LogicalPlan]:
        return [self.left, self.right]

    def describe(self) -> str:
        return f"Join({self.kind}, {self.condition!r})"


class AggregateCall:
    """One aggregate of an Aggregate node (``AVG(expr) AS name`` etc.)."""

    FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")

    def __init__(self, function: str, argument: Optional[Expression], name: str):
        function = function.upper()
        if function not in self.FUNCTIONS:
            raise PlanError(f"unknown aggregate function {function!r}")
        self.function = function
        self.argument = argument  # None means COUNT(*)
        self.name = name

    def __repr__(self) -> str:
        return f"AggregateCall({self.function}, {self.name!r})"


class Aggregate(LogicalPlan):
    def __init__(
        self,
        child: LogicalPlan,
        group_by: Sequence[Tuple[Expression, str]],
        aggregates: Sequence[AggregateCall],
    ):
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)

    @property
    def columns(self) -> List[str]:
        return [name for _, name in self.group_by] + [a.name for a in self.aggregates]

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        groups = ", ".join(name for _, name in self.group_by)
        aggs = ", ".join(f"{a.function}->{a.name}" for a in self.aggregates)
        return f"Aggregate(group=[{groups}], aggs=[{aggs}])"


class Sort(LogicalPlan):
    def __init__(self, child: LogicalPlan, keys: Sequence[Tuple[Expression, bool]]):
        self.child = child
        self.keys = list(keys)  # (expression, ascending)

    @property
    def columns(self) -> List[str]:
        return self.child.columns

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        return f"Sort({len(self.keys)} keys)"


class Distinct(LogicalPlan):
    def __init__(self, child: LogicalPlan):
        self.child = child

    @property
    def columns(self) -> List[str]:
        return self.child.columns

    def children(self) -> List[LogicalPlan]:
        return [self.child]


SET_OP_KINDS = ("union", "union_all", "except", "intersect")


class SetOp(LogicalPlan):
    def __init__(self, kind: str, left: LogicalPlan, right: LogicalPlan):
        if kind not in SET_OP_KINDS:
            raise PlanError(f"unknown set operation {kind!r}")
        if len(left.columns) != len(right.columns):
            raise PlanError("set operation inputs must have the same number of columns")
        self.kind = kind
        self.left = left
        self.right = right

    @property
    def columns(self) -> List[str]:
        return self.left.columns

    def children(self) -> List[LogicalPlan]:
        return [self.left, self.right]

    def describe(self) -> str:
        return f"SetOp({self.kind})"


class Limit(LogicalPlan):
    def __init__(self, child: LogicalPlan, count: int):
        self.child = child
        self.count = count

    @property
    def columns(self) -> List[str]:
        return self.child.columns

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        return f"Limit({self.count})"


class Align(LogicalPlan):
    """Temporal alignment ``left Φθ right`` as a single logical node.

    ``start``/``end`` name the interval boundary columns of both inputs
    (resolved against each input's column list).  The output columns are the
    left input's columns with the boundary columns now holding the adjusted
    interval.
    """

    def __init__(
        self,
        left: LogicalPlan,
        right: LogicalPlan,
        condition: Optional[Expression],
        left_start: str = "ts",
        left_end: str = "te",
        right_start: str = "ts",
        right_end: str = "te",
    ):
        self.left = left
        self.right = right
        self.condition = condition
        self.left_start = left_start
        self.left_end = left_end
        self.right_start = right_start
        self.right_end = right_end

    @property
    def columns(self) -> List[str]:
        return self.left.columns

    def children(self) -> List[LogicalPlan]:
        return [self.left, self.right]

    def describe(self) -> str:
        return f"Align(condition={self.condition!r})"


class Normalize(LogicalPlan):
    """Temporal normalization ``N_B(left; right)`` as a single logical node."""

    def __init__(
        self,
        left: LogicalPlan,
        right: LogicalPlan,
        using: Sequence[Tuple[str, str]],
        left_start: str = "ts",
        left_end: str = "te",
        right_start: str = "ts",
        right_end: str = "te",
    ):
        self.left = left
        self.right = right
        self.using = list(using)  # pairs of (left column, right column)
        self.left_start = left_start
        self.left_end = left_end
        self.right_start = right_start
        self.right_end = right_end

    @property
    def columns(self) -> List[str]:
        return self.left.columns

    def children(self) -> List[LogicalPlan]:
        return [self.left, self.right]

    def describe(self) -> str:
        using = ", ".join(f"{left}={right}" for left, right in self.using)
        return f"Normalize(using=[{using}])"


class Absorb(LogicalPlan):
    """The absorb operator ``α`` over a child with ``ts``/``te`` columns."""

    def __init__(self, child: LogicalPlan, start: str = "ts", end: str = "te"):
        self.child = child
        self.start = start
        self.end = end

    @property
    def columns(self) -> List[str]:
        return self.child.columns

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def describe(self) -> str:
        return f"Absorb({self.start}, {self.end})"
