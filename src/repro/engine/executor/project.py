"""Projection (expression evaluation) operator."""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from repro.engine.executor.base import PhysicalNode, Row
from repro.engine.expressions import Column, Expression, IndexColumn, resolve_column

if TYPE_CHECKING:  # pragma: no cover
    from repro.columnar.batch import Batch


class ProjectNode(PhysicalNode):
    """Compute output expressions per row (no duplicate elimination).

    A projection of plain column references — the root of every query, the
    split-point projections of ``NORMALIZE`` — evaluates nothing: it picks
    the positions out of each child row in one C-level call, and hands a
    child's batch on as those columns.
    """

    def __init__(self, child: PhysicalNode, expressions: Sequence[Tuple[Expression, str]]):
        super().__init__([name for _, name in expressions], [child])
        self.child = child
        self.expressions = list(expressions)
        self._bound = [expr.bind(child.columns) for expr, _ in expressions]
        self._positions = _column_positions(self.expressions, child.columns)

    def rows(self) -> Iterator[Row]:
        positions = self._positions
        if positions is None:
            return self._evaluated()
        if len(positions) == 1:
            # A one-column itemgetter returns the bare value; zip re-wraps it.
            return zip(map(itemgetter(positions[0]), self.child))
        return map(itemgetter(*positions), self.child)

    def produce_batch(self) -> Optional[Batch]:
        if self._positions is None:
            return None
        batch = self.child.batch()
        return None if batch is None else batch.select(self._positions)

    def _evaluated(self) -> Iterator[Row]:
        bound = self._bound
        for row in self.child:
            yield tuple(b(row) for b in bound)

    def describe(self) -> str:
        return f"Project({', '.join(self.columns)})"


def _column_positions(
    expressions: Sequence[Tuple[Expression, str]], columns: Sequence[str]
) -> Optional[List[int]]:
    """Child row positions when every expression is a bare column reference
    (and there is at least one), else ``None``."""
    positions: List[int] = []
    for expression, _ in expressions:
        if isinstance(expression, IndexColumn):
            positions.append(expression.index)
        elif isinstance(expression, Column):
            positions.append(resolve_column(expression.name, columns))
        else:
            return None
    return positions or None
