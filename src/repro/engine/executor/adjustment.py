"""The plane-sweep adjustment operator (``ExecAdjustment``, Fig. 10).

One executor node serves both temporal primitives:

* **alignment** (``isalign=True``): the input stream is the group-construction
  left outer join of the argument relation ``r`` with the reference relation
  ``s`` (condition θ ∧ overlap), projected to the ``r`` columns plus the
  intersection bounds ``P1``/``P2``, partitioned by ``r`` tuple and sorted by
  ``(P1, P2)`` within each partition — exactly the query tree of Fig. 12(b).
  The sweep emits gap tuples ``[sweepline, P1)``, de-duplicated intersection
  tuples ``[P1, P2)`` and, when a group closes, the trailing gap
  ``[sweepline, r.Te)``.

* **normalization** (``isalign=False``): the input stream joins ``r`` with
  the union of the start and end points of the reference (restricted to
  points strictly inside the ``r`` interval) sorted per group; the sweep
  simply moves from split point to split point.

The node is fully pipelined: it looks at one input row at a time and emits at
most a bounded number of rows per input row, mirroring the constant-memory
claim of Sec. 6.1/6.3.  It is the reference plan
(``Settings(enable_columnar=False)``) the columnar kernels are held to.

An argument row whose interval bound is ω has no interval to adjust: both
this node and the kernels raise :func:`null_bound_error` for it.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

from repro.engine.executor.base import PhysicalNode, Row
from repro.relation.errors import PlanError, QueryError
from repro.relation.tuple import is_null


def null_bound_error(column: str) -> QueryError:
    """The error of an ALIGN/NORMALIZE argument row with ω in ``column``."""
    return QueryError(f"ALIGN/NORMALIZE argument row has a null interval bound in {column!r}")


class AdjustmentNode(PhysicalNode):
    """Plane sweep over a partitioned and sorted group-construction join.

    Parameters
    ----------
    child:
        Producer of rows laid out as ``r-columns…, P1[, P2]`` where the first
        ``group_width`` columns are the ``r`` tuple (including its interval
        boundary columns at ``ts_index``/``te_index``) and the trailing one or
        two columns carry the split point (normalization) or the intersection
        bounds (alignment).  ``P1`` is null for dangling rows of the outer
        join (an ``r`` tuple without any match).
    group_width:
        Number of leading columns forming the ``r`` tuple / partition key.
    ts_index, te_index:
        Positions of the ``r`` interval boundaries inside the partition key.
    isalign:
        ``True`` for the temporal aligner, ``False`` for the splitter.

    The output has the ``r`` columns with the boundary columns replaced by
    the adjusted interval.
    """

    def __init__(
        self,
        child: PhysicalNode,
        group_width: int,
        ts_index: int,
        te_index: int,
        isalign: bool,
        columns: Optional[Sequence[str]] = None,
    ):
        expected_extra = 2 if isalign else 1
        if len(child.columns) != group_width + expected_extra:
            raise PlanError(
                f"adjustment input must have {group_width + expected_extra} columns, "
                f"got {len(child.columns)}"
            )
        if not (0 <= ts_index < group_width and 0 <= te_index < group_width):
            raise PlanError("interval boundary indexes must lie inside the group prefix")
        output_columns = list(columns) if columns is not None else list(child.columns[:group_width])
        super().__init__(output_columns, [child])
        self.child = child
        self.group_width = group_width
        self.ts_index = ts_index
        self.te_index = te_index
        self.isalign = isalign

    # -- helpers ------------------------------------------------------------------

    def _open(self, group: Row) -> Row:
        """``group`` as the sweep's next group, its bounds checked for ω."""
        for index in (self.ts_index, self.te_index):
            if is_null(group[index]):
                raise null_bound_error(self.columns[index])
        return group

    def _emit(self, group: Row, start: int, end: int) -> Row:
        values = list(group)
        values[self.ts_index] = start
        values[self.te_index] = end
        return tuple(values)

    # -- the sweep ------------------------------------------------------------------

    def rows(self) -> Iterator[Row]:
        if self.isalign:
            return self._align_rows()
        return self._normalize_rows()

    def _align_rows(self) -> Iterator[Row]:
        group: Optional[Row] = None
        sweepline = 0
        last_intersection: Optional[Tuple[int, int]] = None

        for row in self.child:
            key = row[: self.group_width]
            p1 = row[self.group_width]
            p2 = row[self.group_width + 1]

            if key != group:
                if group is not None and sweepline < group[self.te_index]:
                    yield self._emit(group, sweepline, group[self.te_index])
                group = self._open(key)
                sweepline = group[self.ts_index]
                last_intersection = None

            if is_null(p1) or is_null(p2):
                # Dangling outer-join row: the r tuple has no match at all;
                # the trailing emit when the group closes covers [Ts, Te).
                continue

            if sweepline < p1:
                yield self._emit(group, sweepline, p1)
                sweepline = p1
            if (p1, p2) != last_intersection:
                yield self._emit(group, p1, p2)
                last_intersection = (p1, p2)
            if p2 > sweepline:
                sweepline = p2

        if group is not None and sweepline < group[self.te_index]:
            yield self._emit(group, sweepline, group[self.te_index])

    def _normalize_rows(self) -> Iterator[Row]:
        group: Optional[Row] = None
        sweepline = 0

        for row in self.child:
            key = row[: self.group_width]
            point = row[self.group_width]

            if key != group:
                if group is not None and sweepline < group[self.te_index]:
                    yield self._emit(group, sweepline, group[self.te_index])
                group = self._open(key)
                sweepline = group[self.ts_index]

            if is_null(point):
                continue
            if point <= sweepline:
                # Duplicate split point (or one outside the remaining interval).
                continue
            yield self._emit(group, sweepline, point)
            sweepline = point

        if group is not None and sweepline < group[self.te_index]:
            yield self._emit(group, sweepline, group[self.te_index])

    def describe(self) -> str:
        return f"Adjustment({'align' if self.isalign else 'normalize'})"
