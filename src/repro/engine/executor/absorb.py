"""The absorb operator ``α`` (Def. 12) as a physical node."""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List

from repro.columnar import batch as batches
from repro.engine.executor.base import PhysicalNode, Row
from repro.obs import trace as obs_trace
from repro.relation.errors import QueryError
from repro.relation.tuple import is_null


def null_bound_error(column: str) -> QueryError:
    """The error of an ABSORB input row with ω in interval bound ``column``."""
    return QueryError(f"ABSORB input row has a null interval bound in {column!r}")


class AbsorbNode(PhysicalNode):
    """Remove rows whose interval is properly contained in a value-equivalent row.

    The node materialises its input (absorption is inherently blocking: a
    covering tuple may arrive after the covered one), groups rows by their
    non-interval values, and keeps per group only the maximal intervals.
    Exact duplicates collapse to a single row — the ``ABSORB`` keyword of the
    SQL surface therefore subsumes ``DISTINCT``.  Groups come out in order
    of first appearance, a group's rows by ascending start.

    A child that hands over a batch is absorbed as arrays
    (:func:`repro.columnar.batch.absorb`), the same rows in the same order.
    Absorption compares intervals, so a row with ω as a bound (a padded row
    of an outer join) raises :func:`null_bound_error` on both forms.
    """

    def __init__(self, child: PhysicalNode, start_index: int, end_index: int):
        super().__init__(child.columns, [child])
        self.child = child
        self.start_index = start_index
        self.end_index = end_index
        others = [i for i in range(len(child.columns)) if i not in (start_index, end_index)]
        # Any hashable stands for the group: the bare value of a single
        # non-interval column, () when there is none.
        self._group_key: Callable[[Row], Any] = (
            itemgetter(*others) if others else lambda row: ()
        )

    def rows(self) -> Iterator[Row]:
        batch = self.child.batch()
        source: Iterable[Row] = self.child
        if batch is not None:
            absorbed = batches.absorb(batch, self.start_index, self.end_index, self.columns)
            if absorbed is not None:
                obs_trace.annotate(self, input="batch")
                yield from absorbed.materialize()
                return
            source = batch.materialize()
        obs_trace.annotate(self, input="rows")
        yield from self._absorb(source)

    def _absorb(self, source: Iterable[Row]) -> Iterator[Row]:
        start_index = self.start_index
        end_index = self.end_index
        group_key = self._group_key
        groups: Dict[Any, List[Row]] = {}
        for row in source:
            for index in (start_index, end_index):
                if is_null(row[index]):
                    raise null_bound_error(self.columns[index])
            key = group_key(row)
            group = groups.get(key)
            if group is None:
                groups[key] = [row]
            else:
                group.append(row)

        for group in groups.values():
            first = group[0]
            if len(group) == 1:
                # Nothing to absorb and nothing to rebuild.
                yield first
                continue
            intervals = sorted(
                {(row[start_index], row[end_index]) for row in group},
                key=lambda iv: (iv[0], -iv[1]),
            )
            max_end = None
            for start, end in intervals:
                if max_end is not None and end <= max_end:
                    continue
                max_end = end
                # The group's first row carries its values, as the key did.
                values = list(first)
                values[start_index] = start
                values[end_index] = end
                yield tuple(values)

    def describe(self) -> str:
        return "Absorb"
