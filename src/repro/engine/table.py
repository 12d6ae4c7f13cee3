"""Engine tables: named columns over plain Python value rows.

The engine is deliberately schema-light: a table is an ordered list of column
names plus a list of equally long value tuples.  Interval timestamps are
stored as two integer columns (by convention ``ts`` and ``te``), exactly how
the kernel implementation stores ``PERIOD`` boundaries.

A registered :class:`~repro.relation.relation.TemporalRelation` is not
copied into a table: the executor reads it in place through
:func:`relation_rows`, one entry of the relation's own derived cache.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.relation.errors import SchemaError
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.temporal.interval import Interval

Row = Tuple[Any, ...]

#: Column names used to store interval boundaries in engine tables.
START_COLUMN = "ts"
END_COLUMN = "te"


class Table:
    """A named list of rows over a fixed list of columns."""

    def __init__(self, name: str, columns: Sequence[str], rows: Optional[Iterable[Row]] = None):
        if len(set(columns)) != len(columns):
            raise SchemaError(f"duplicate column names in table {name!r}: {list(columns)}")
        self.name = name
        self.columns: Tuple[str, ...] = tuple(columns)
        self.rows: List[Row] = [tuple(row) for row in rows] if rows is not None else []
        self._index = {column: i for i, column in enumerate(self.columns)}

    # -- protocol ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, columns={list(self.columns)}, rows={len(self.rows)})"

    # -- access ------------------------------------------------------------------

    def column_index(self, column: str) -> int:
        try:
            return self._index[column]
        except KeyError:
            raise SchemaError(
                f"unknown column {column!r} in table {self.name!r}; has {list(self.columns)}"
            ) from None

    def append(self, row: Sequence[Any]) -> None:
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row width {len(row)} does not match table {self.name!r} "
                f"with {len(self.columns)} columns"
            )
        self.rows.append(tuple(row))

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        for row in rows:
            self.append(row)

    # -- conversion ---------------------------------------------------------------

    def to_relation(
        self,
        start_column: str = START_COLUMN,
        end_column: str = END_COLUMN,
        timestamp_name: str = "T",
    ) -> TemporalRelation:
        """Interpret ``ts``/``te`` columns as the tuple timestamp."""
        start_index = self.column_index(start_column)
        end_index = self.column_index(end_column)
        value_columns = [
            c for c in self.columns if c not in (start_column, end_column)
        ]
        value_indexes = [self._index[c] for c in value_columns]
        schema = Schema(value_columns, timestamp=timestamp_name)
        relation = TemporalRelation(schema)
        for row in self.rows:
            values = tuple(row[i] for i in value_indexes)
            relation.insert(values, Interval(row[start_index], row[end_index]))
        return relation

    # -- presentation ---------------------------------------------------------------

    def pretty(self, limit: Optional[int] = 20) -> str:
        """Fixed-width rendering of (a prefix of) the table."""
        rows = self.rows if limit is None else self.rows[:limit]
        rendered = [list(self.columns)] + [[str(v) for v in row] for row in rows]
        widths = [max(len(line[i]) for line in rendered) for i in range(len(self.columns))]
        lines = []
        for index, line in enumerate(rendered):
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip())
            if index == 0:
                lines.append("  ".join("-" * w for w in widths))
        if limit is not None and len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)


# -- registered relations -------------------------------------------------------------


def relation_columns(relation: TemporalRelation) -> Tuple[str, ...]:
    """The columns the executor reads off ``relation``: attributes, ``ts``, ``te``.

    Attributes holding :class:`Interval` values (propagated timestamps) are
    opaque values to the engine — exactly the role of a propagated ``U``
    attribute.
    """
    return relation.schema.attribute_names + (START_COLUMN, END_COLUMN)


def build_rows(relation: TemporalRelation) -> List[Row]:
    """Each tuple's values followed by its bounds, in the relation's order."""
    return [t.values + (t.start, t.end) for t in relation]


def relation_rows(relation: TemporalRelation) -> List[Row]:
    """The rows a scan of ``relation`` reads (see :func:`build_rows`).

    One entry of the relation's derived cache: built by the first read after
    a mutation and dropped by the next one like every frame, so a reader
    always sees the live relation.  The list is shared; callers only read it.
    """
    return relation.derived(("engine", "rows"), lambda: build_rows(relation))
