"""Engine tables: named columns over plain Python value rows.

The engine is deliberately schema-light: a table is an ordered list of column
names plus a list of equally long value tuples.  Interval timestamps are
stored as two integer columns (by convention ``ts`` and ``te``), exactly how
the kernel implementation stores ``PERIOD`` boundaries, and converted to and
from :class:`~repro.relation.relation.TemporalRelation` at the boundary of
the engine.
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
        #: The backing :class:`TemporalRelation` when the table is a snapshot
        #: of one (set by :meth:`from_relation`); read through
        #: :meth:`current_source_relation`.
        self.source_relation: Optional[TemporalRelation] = None
        #: ``source_relation.generation`` when the rows were copied; the
        #: snapshot describes the live relation only while the two agree.
        self.source_generation: int = -1

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

    @classmethod
    def from_relation(
        cls,
        name: str,
        relation: TemporalRelation,
        start_column: str = START_COLUMN,
        end_column: str = END_COLUMN,
    ) -> Table:
        """Store a temporal relation as a table with explicit ``ts``/``te`` columns.

        Attributes holding :class:`Interval` values (propagated timestamps)
        are kept as-is — the engine treats them as opaque values, which is
        exactly the role of a propagated ``U`` attribute.
        """
        columns = list(relation.schema.attribute_names) + [start_column, end_column]
        rows = [t.values + (t.start, t.end) for t in relation]
        table = cls(name, columns, rows)
        table.source_relation = relation
        table.source_generation = relation.generation
        return table

    def current_source_relation(self) -> Optional[TemporalRelation]:
        """The backing relation, if this snapshot still mirrors it row for row.

        A physical plan keeps the table it was planned over, while structures
        cached on the relation (:meth:`TemporalRelation.derived`) follow the
        *live* tuples.  Consumers that want those structures in place of a
        scan of :attr:`rows` ask here first: ``None`` once the relation was
        mutated after the copy (or the table itself was appended to), so a
        stale plan keeps answering from its own rows.
        """
        relation = self.source_relation
        if (
            relation is None
            or relation.generation != self.source_generation
            or len(relation) != len(self.rows)
        ):
            return None
        return relation

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
