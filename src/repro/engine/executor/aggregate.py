"""Hash aggregation operator."""

from __future__ import annotations

from numbers import Number
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.columnar import batch as batches
from repro.engine.executor.base import PhysicalNode, Row
from repro.engine.executor.project import _column_positions
from repro.engine.expressions import Expression
from repro.engine.plan import AggregateCall
from repro.obs import trace as obs_trace
from repro.relation.errors import QueryError
from repro.relation.tuple import NULL, compare_values, is_null


class _Accumulator:
    """Running state of one aggregate function in one group.

    ``MIN``/``MAX`` use the executor's total order (the one ``ORDER BY``
    sorts by), so a column mixing types still has a minimum; ``SUM``/``AVG``
    accept numbers only.
    """

    def __init__(self, function: str):
        self.function = function
        self.count = 0
        self.total: Any = 0
        self.minimum: Any = None
        self.maximum: Any = None

    def add(self, value: Any) -> None:
        if is_null(value):
            return
        self.count += 1
        if self.function == "COUNT":
            return
        if self.function in ("SUM", "AVG"):
            if not isinstance(value, Number):
                raise QueryError(f"{self.function} over the non-numeric value {value!r}")
            self.total = self.total + value
        if self.function == "MIN":
            if self.minimum is None or compare_values(value, self.minimum) < 0:
                self.minimum = value
        if self.function == "MAX":
            if self.maximum is None or compare_values(value, self.maximum) > 0:
                self.maximum = value

    def result(self) -> Any:
        if self.function == "COUNT":
            return self.count
        if self.count == 0:
            return NULL
        if self.function == "SUM":
            return self.total
        if self.function == "AVG":
            return self.total / self.count
        if self.function == "MIN":
            return self.minimum
        return self.maximum


class HashAggregateNode(PhysicalNode):
    """Group rows by the grouping expressions and evaluate aggregate calls.

    ``COUNT(*)`` (an aggregate call without argument) counts rows;
    ``COUNT(expr)``, ``SUM``, ``AVG``, ``MIN`` and ``MAX`` skip null inputs,
    as in SQL.  With an empty grouping list a single output row
    is produced even for empty input (like SQL aggregate queries without
    ``GROUP BY``).

    A child that hands over a batch is grouped as arrays
    (:func:`repro.columnar.batch.aggregate`) when every group key is a bare
    column, the same rows in the same order.
    """

    def __init__(
        self,
        child: PhysicalNode,
        group_by: Sequence[Tuple[Expression, str]],
        aggregates: Sequence[AggregateCall],
    ):
        columns = [name for _, name in group_by] + [a.name for a in aggregates]
        super().__init__(columns, [child])
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        self._bound_groups = [expr.bind(child.columns) for expr, _ in group_by]
        self._bound_arguments = [
            a.argument.bind(child.columns) if a.argument is not None else None
            for a in aggregates
        ]
        self._group_positions = _column_positions(self.group_by, child.columns)
        self._calls = self._batch_calls()

    def _batch_calls(self) -> Optional[List[Tuple[str, Optional[int]]]]:
        """``(function, argument column)`` per call for the batch form, or
        ``None`` when an argument is not a bare column."""
        calls: List[Tuple[str, Optional[int]]] = []
        for call in self.aggregates:
            if call.argument is None:
                calls.append((call.function, None))
                continue
            position = _column_positions([(call.argument, call.name)], self.child.columns)
            if position is None:
                return None
            calls.append((call.function, position[0]))
        return calls

    def rows(self) -> Iterator[Row]:
        batch = self.child.batch()
        source: Iterable[Row] = self.child
        if batch is not None:
            grouped = None
            if self._group_positions is not None and self._calls is not None:
                grouped = batches.aggregate(batch, self._group_positions, self._calls)
            if grouped is not None:
                obs_trace.annotate(self, input="batch")
                yield from grouped.materialize()
                return
            source = batch.materialize()
        obs_trace.annotate(self, input="rows")
        yield from self._aggregate(source)

    def _aggregate(self, source: Iterable[Row]) -> Iterator[Row]:
        groups: Dict[Tuple[Any, ...], List[_Accumulator]] = {}
        order: List[Tuple[Any, ...]] = []

        for row in source:
            key = tuple(evaluate(row) for evaluate in self._bound_groups)
            state = groups.get(key)
            if state is None:
                state = [_Accumulator(a.function) for a in self.aggregates]
                groups[key] = state
                order.append(key)
            for accumulator, bound in zip(state, self._bound_arguments):
                accumulator.add(bound(row) if bound is not None else 1)

        if not groups and not self.group_by:
            yield tuple(_Accumulator(a.function).result() for a in self.aggregates)
            return

        for key in order:
            yield key + tuple(acc.result() for acc in groups[key])

    def describe(self) -> str:
        return (
            f"HashAggregate(group={[name for _, name in self.group_by]}, "
            f"aggs={[a.name for a in self.aggregates]})"
        )
