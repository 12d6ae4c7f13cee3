"""Sequential scan of a base table or of a registered relation."""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

from repro.engine.executor.base import PhysicalNode, Row
from repro.engine.table import Table, relation_columns, relation_rows
from repro.relation.relation import TemporalRelation


class SeqScanNode(PhysicalNode):
    """Scan all rows of a table, optionally exposing alias-qualified columns.

    A registered relation is read in place when the scan executes
    (:func:`~repro.engine.table.relation_rows`), so a plan answers the live
    relation however long ago it was planned.
    """

    def __init__(
        self,
        name: str,
        source: Union[Table, TemporalRelation],
        alias: Optional[str] = None,
    ):
        base: Sequence[str] = (
            source.columns if isinstance(source, Table) else relation_columns(source)
        )
        super().__init__([f"{alias}.{c}" for c in base] if alias else base)
        self.name = name
        self.source = source
        self.alias = alias

    @property
    def relation(self) -> Optional[TemporalRelation]:
        """The relation this scan reads, ``None`` for a plain table."""
        source = self.source
        return source if isinstance(source, TemporalRelation) else None

    def rows(self) -> Iterator[Row]:
        source = self.source
        if isinstance(source, Table):
            return iter(source.rows)
        return iter(relation_rows(source))

    def describe(self) -> str:
        alias = f" AS {self.alias}" if self.alias else ""
        return f"SeqScan({self.name}{alias})"
