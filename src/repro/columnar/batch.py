"""Batches: an operator's whole output as columns, handed above the kernel.

``ColumnarAdjustment`` computes its output as arrays — the argument row and
the adjusted ``ts``/``te`` of every piece.  A :class:`Batch` keeps that form
for the nontemporal operators the paper's reductions (Table 2) put above an
adjustment: the join on ``r.T = s.T`` every temporal outer join ends in,
absorb (α), and the grouping of a temporal aggregation.  Rows are then built
once, by the first operator that needs rows (:meth:`Batch.materialize`, the
engine's one array → row tail).

A batch is columns of equal length, each one of

* :class:`Gathered` — a column of a :class:`Source`'s rows, picked by a
  position array in which ``-1`` stands for a row of ω (outer-join
  padding);
* :class:`Ints` — an integer array with an optional null mask (the piece
  bounds).

The three batch forms — :func:`join`, :func:`absorb` and :func:`aggregate`
— produce exactly what the row operators produce, order included.  Equality
is the row operators' dictionary equality: key and group codes come from a
Python dict over each source's distinct values (``1``, ``1.0`` and ``True``
fall together, ω groups with ω and joins nothing).  A form returns ``None``
for a shape outside it; the caller then runs its row code over the
materialized rows.  Everything but :meth:`Batch.materialize` needs NumPy.
"""

from __future__ import annotations

from operator import add, itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.columnar.runtime import numpy_or_none
from repro.relation.tuple import NULL, is_null

Row = Tuple[Any, ...]

#: ``derived(key, builder)`` of the relation a source's rows are read from
#: (:meth:`~repro.relation.relation.TemporalRelation.derived`): value codes
#: over such rows are built once and dropped by the mutation funnel.
Cache = Callable[[Hashable, Callable[[], Any]], Any]

#: Code ranges multiply below this bound, so combined codes never overflow.
_CODE_LIMIT = 2**62


class Source:
    """Rows a batch picks its :class:`Gathered` columns from.

    ``positions[k]`` is the row behind batch row ``k`` — an ``int64``
    array, or a list as the kernels return it; only if ``padded`` may it be
    ``-1``, a row of ``width`` ω values.  ``cache``, when set, keeps value
    codes over ``rows`` across executions; only sources whose rows are a
    function of a relation's current tuples carry one.
    """

    __slots__ = ("rows", "positions", "width", "cache", "padded")

    def __init__(
        self,
        rows: Sequence[Row],
        positions: Any,
        width: int,
        cache: Optional[Cache] = None,
        padded: bool = False,
    ):
        self.rows = rows
        self.positions = positions
        self.width = width
        self.cache = cache
        self.padded = padded


class Gathered(NamedTuple):
    """Column ``index`` of the rows ``source`` picks."""

    source: Source
    index: int


class Ints(NamedTuple):
    """Integer values; where ``nulls`` (a bool array) is true the value is ω."""

    values: Any
    nulls: Any = None


Column = Union[Gathered, Ints]


class Batch:
    """Columns of equal length: the whole output of one operator."""

    __slots__ = ("columns", "length")

    def __init__(self, columns: Sequence[Column], length: int):
        self.columns: List[Column] = list(columns)
        self.length = length

    def __len__(self) -> int:
        return self.length

    @classmethod
    def from_rows(cls, rows: Sequence[Row], width: int) -> Batch:
        """Finished rows as a batch (what a declined form hands on)."""
        np = numpy_or_none()
        positions: Any = range(len(rows)) if np is None else np.arange(len(rows))
        source = Source(rows, positions, width)
        return cls([Gathered(source, i) for i in range(width)], len(rows))

    def select(self, indexes: Sequence[int]) -> Batch:
        """The columns at ``indexes`` (a column-only projection)."""
        return Batch([self.columns[i] for i in indexes], self.length)

    def take(self, picks: Any) -> Batch:
        """Rows ``picks`` (an ``int64`` array) of this batch; ``-1`` picks ω."""
        np = numpy_or_none()
        padded = len(picks) > 0 and int(picks.min()) < 0
        sources: Dict[int, Source] = {}
        columns: List[Column] = []
        for column in self.columns:
            if isinstance(column, Gathered):
                old = column.source
                new = sources.get(id(old))
                if new is None:
                    positions = _pick(np, _ints(np, old.positions), picks, padded, -1)
                    new = sources[id(old)] = Source(
                        old.rows, positions, old.width, old.cache, padded or old.padded
                    )
                columns.append(Gathered(new, column.index))
                continue
            nulls = column.nulls
            if padded and nulls is None:
                nulls = np.zeros(len(column.values), dtype=bool)
            columns.append(
                Ints(
                    _pick(np, _ints(np, column.values), picks, padded, 0),
                    None if nulls is None else _pick(np, nulls, picks, padded, True),
                )
            )
        return Batch(columns, len(picks))

    def materialize(self) -> List[Row]:
        """The batch as row tuples.

        Adjacent columns of one source are one slice per row, adjacent
        integer columns one tuple per row, and a row is these pieces
        concatenated — all through C-level iterators, so the adjustment's
        own layout (``r``'s values, then ``ts``/``te``) costs one slice and
        one concatenation per row.
        """
        columns = self.columns
        pieces: List[Iterator[Row]] = []
        k = 0
        while k < len(columns):
            column = columns[k]
            j = k + 1
            if isinstance(column, Gathered):
                stop = column.index + 1
                while j < len(columns):
                    following = columns[j]
                    if not (
                        isinstance(following, Gathered)
                        and following.source is column.source
                        and following.index == stop
                    ):
                        break
                    stop += 1
                    j += 1
                pieces.append(_slices(column.source, column.index, stop))
            else:
                while j < len(columns) and isinstance(columns[j], Ints):
                    j += 1
                pieces.append(_int_tuples([c for c in columns[k:j] if isinstance(c, Ints)]))
            k = j
        if not pieces:
            return [()] * self.length
        rows = pieces[0]
        for piece in pieces[1:]:
            rows = map(add, rows, piece)
        return list(rows)


def _as_list(values: Any) -> Any:
    return values.tolist() if hasattr(values, "tolist") else values


def _ints(np: Any, values: Any) -> Any:
    return np.asarray(values, dtype=np.int64)


def _pick(np: Any, array: Any, picks: Any, padded: bool, fill: Any) -> Any:
    """``array[picks]``, with ``fill`` where a pick is ``-1``."""
    if padded:
        return np.append(array, np.asarray([fill], dtype=array.dtype))[picks]
    return array[picks]


def _slices(source: Source, start: int, stop: int) -> Iterator[Row]:
    rows = source.rows
    if source.padded:
        # Position -1 reads the appended row of ω.
        rows = list(rows) + [(NULL,) * source.width]
    picked: Iterator[Row] = map(rows.__getitem__, _as_list(source.positions))
    if (start, stop) == (0, source.width):
        return picked
    return map(itemgetter(slice(start, stop)), picked)


def _int_tuples(columns: Sequence[Ints]) -> Iterator[Row]:
    lists = []
    for column in columns:
        values = _as_list(column.values)
        if column.nulls is not None:
            values = [NULL if null else v for v, null in zip(values, column.nulls.tolist())]
        lists.append(values)
    return zip(*lists)


# -- codes ---------------------------------------------------------------------------------


def _value_codes(
    np: Any, source: Source, indexes: Tuple[int, ...]
) -> Tuple[Any, Dict[Hashable, int]]:
    """Per batch row, the code of its values at ``indexes``, and the dict
    (value, or tuple of values, → code) over the source's rows that assigns
    them; a padded row gets the code of all-ω values."""
    key = itemgetter(*indexes)
    pad: Hashable = NULL if len(indexes) == 1 else (NULL,) * len(indexes)

    def build() -> Tuple[Any, Dict[Hashable, int]]:
        table: Dict[Hashable, int] = {}
        codes = [table.setdefault(value, len(table)) for value in map(key, source.rows)]
        # Last entry: what position -1 reads.
        codes.append(table.setdefault(pad, len(table)))
        return np.asarray(codes, dtype=np.int64), table

    if source.cache is None:
        codes, table = build()
    else:
        codes, table = source.cache(("columnar", "value_codes", indexes), build)
    return codes[_ints(np, source.positions)], table


def _int_codes(np: Any, values: Any, nulls: Any) -> Tuple[Any, int]:
    """Codes in ``[0, bound)`` equal exactly where the values are (ω last)."""
    values = _ints(np, values)
    if len(values) == 0:
        return values, 1
    low, high = int(values.min()), int(values.max())
    if high - low + 2 < _CODE_LIMIT:
        codes, bound = values - low, high - low + 2
    else:
        distinct, codes = np.unique(values, return_inverse=True)
        bound = len(distinct) + 1
    if nulls is not None:
        codes = np.where(nulls, bound - 1, codes)
    return codes, bound


def _rerank(np: Any, codes: Any) -> Tuple[Any, int]:
    distinct, dense = np.unique(codes, return_inverse=True)
    return dense.astype(np.int64), len(distinct)


def _combine(np: Any, components: Sequence[Tuple[Any, int]], length: int) -> Any:
    """One code per row from several ``(codes, bound)`` components, equal
    iff every component is; components are re-ranked densely before a
    product of bounds could overflow."""
    if not components:
        return np.zeros(length, dtype=np.int64)
    codes, bound = components[0]
    for other, other_bound in components[1:]:
        if bound * other_bound >= _CODE_LIMIT:
            codes, bound = _rerank(np, codes)
            other, other_bound = _rerank(np, other)
        codes = codes * other_bound + other
        bound *= other_bound
    return codes


def _group_codes(np: Any, batch: Batch, indexes: Sequence[int]) -> Any:
    """Codes equal iff the rows' values at ``indexes`` are (dict equality)."""
    components: List[Tuple[Any, int]] = []
    units: Dict[int, Tuple[Source, List[int]]] = {}
    for i in indexes:
        column = batch.columns[i]
        if isinstance(column, Gathered):
            units.setdefault(id(column.source), (column.source, []))[1].append(column.index)
        else:
            components.append(_int_codes(np, column.values, column.nulls))
    for source, unit in units.values():
        codes, table = _value_codes(np, source, tuple(unit))
        components.append((codes, len(table)))
    return _combine(np, components, batch.length)


def _has_null(key: Any, width: int) -> bool:
    """Whether a dictionary key (a bare value when ``width`` is 1) holds ω."""
    if width == 1:
        return is_null(key)
    return any(map(is_null, key))


def _shared_codes(
    np: Any,
    left: Source,
    left_indexes: Tuple[int, ...],
    right: Source,
    right_indexes: Tuple[int, ...],
) -> Tuple[Any, Any, int]:
    """Codes of both sides' key values in the right side's dictionary.

    Returns ``(codes, valid, bound)`` over the left rows then the right
    rows; a key containing ω — or, on the left, one the right side lacks —
    is not valid: it matches nothing, as in the row join's bucket lookup.
    """
    left_codes, left_table = _value_codes(np, left, left_indexes)
    right_codes, right_table = _value_codes(np, right, right_indexes)
    width = len(right_indexes)
    null_key = np.fromiter(
        (_has_null(key, width) for key in right_table), dtype=bool, count=len(right_table)
    )
    mapping = np.fromiter(
        (-1 if _has_null(key, width) else right_table.get(key, -1) for key in left_table),
        dtype=np.int64,
        count=len(left_table),
    )
    mapped = mapping[left_codes]
    valid = np.concatenate([mapped >= 0, ~null_key[right_codes]])
    codes = np.concatenate([np.maximum(mapped, 0), right_codes])
    return codes, valid, max(1, len(right_table))


# -- the three forms -----------------------------------------------------------------------


def join(
    left: Batch, right: Batch, key_pairs: Sequence[Tuple[int, int]], kind: str
) -> Optional[Batch]:
    """The ``inner``/``left`` equi-join of ``HashJoinNode`` on ``key_pairs``.

    Probe order, a probe row's matches in build order, a dangling left row
    padded in place.  Declines when a key pair mixes a gathered and an
    integer column.
    """
    np = numpy_or_none()
    n, m = left.length, right.length
    components: List[Tuple[Any, int]] = []
    valid = np.ones(n + m, dtype=bool)
    units: Dict[Tuple[int, int], Tuple[Source, Source, List[int], List[int]]] = {}
    for i, j in key_pairs:
        a, b = left.columns[i], right.columns[j]
        if isinstance(a, Ints) and isinstance(b, Ints):
            for column, part in ((a, valid[:n]), (b, valid[n:])):
                if column.nulls is not None:
                    part &= ~column.nulls
            values = np.concatenate([_ints(np, a.values), _ints(np, b.values)])
            components.append(_int_codes(np, values, None))
        elif isinstance(a, Gathered) and isinstance(b, Gathered):
            unit = units.setdefault((id(a.source), id(b.source)), (a.source, b.source, [], []))
            unit[2].append(a.index)
            unit[3].append(b.index)
        else:
            return None
    for a_source, b_source, a_indexes, b_indexes in units.values():
        codes, unit_valid, bound = _shared_codes(
            np, a_source, tuple(a_indexes), b_source, tuple(b_indexes)
        )
        valid &= unit_valid
        components.append((codes, bound))
    codes = _combine(np, components, n + m)
    codes = np.where(valid, codes, -1)
    probe, build = codes[:n], codes[n:]

    order = np.argsort(build, kind="stable")
    ordered = build[order]
    low = np.searchsorted(ordered, probe, side="left")
    matches = np.where(probe >= 0, np.searchsorted(ordered, probe, side="right") - low, 0)
    emitted = np.maximum(matches, 1) if kind == "left" else matches
    total = int(emitted.sum())
    left_picks = np.repeat(np.arange(n, dtype=np.int64), emitted)
    within = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(emitted) - emitted, emitted)
    if m:
        slots = np.minimum(np.repeat(low, emitted) + within, m - 1)
        right_picks = np.where(np.repeat(matches > 0, emitted), order[slots], -1)
    else:
        right_picks = np.full(total, -1, dtype=np.int64)
    return Batch(left.take(left_picks).columns + right.take(right_picks).columns, total)


def absorb(
    batch: Batch, start_index: int, end_index: int, names: Sequence[str]
) -> Optional[Batch]:
    """``AbsorbNode``: per group of equal non-interval values, the maximal
    intervals, exact duplicates once.

    Groups in order of first appearance, each group's intervals by
    ascending start (longest first) and its values from its first row.
    Declines unless both bounds are integer columns; ω in one of them
    raises the row form's error, naming the bound among ``names``.
    """
    start, end = batch.columns[start_index], batch.columns[end_index]
    if not (isinstance(start, Ints) and isinstance(end, Ints)):
        return None
    for index, column in ((start_index, start), (end_index, end)):
        if column.nulls is not None and column.nulls.any():
            from repro.engine.executor.absorb import null_bound_error

            raise null_bound_error(names[index])
    if batch.length == 0:
        return batch
    np = numpy_or_none()
    starts, ends = _ints(np, start.values), _ints(np, end.values)
    others = [i for i in range(len(batch.columns)) if i not in (start_index, end_index)]
    _, first, inverse = np.unique(
        _group_codes(np, batch, others), return_index=True, return_inverse=True
    )
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    group = rank[inverse]
    distinct_ends, end_rank = np.unique(ends, return_inverse=True)
    order = np.lexsort((-end_rank, starts, group))
    # Along ``order`` a row is kept iff its end beats every end before it
    # in its group; offsetting ends by group makes one running max do.
    key = group[order] * len(distinct_ends) + end_rank[order]
    keep = np.empty(len(order), dtype=bool)
    keep[0] = True
    keep[1:] = key[1:] > np.maximum.accumulate(key)[:-1]
    kept = order[keep]
    columns = batch.take(first[inverse[kept]]).columns
    columns[start_index] = Ints(starts[kept])
    columns[end_index] = Ints(ends[kept])
    return Batch(columns, len(kept))


#: Aggregates whose batch form exists, over an integer column.
_REDUCERS = {"SUM": "add", "MIN": "minimum", "MAX": "maximum"}


def aggregate(
    batch: Batch,
    group_indexes: Sequence[int],
    calls: Sequence[Tuple[str, Optional[int]]],
) -> Optional[Batch]:
    """``HashAggregateNode`` grouped on bare columns.

    ``calls`` are ``(function, argument column)``, ``None`` for
    ``COUNT(*)``.  Groups in order of first appearance, keys from each
    group's first row.  Declines without group columns, for ``AVG``, for a
    ``COUNT``/``SUM``/``MIN``/``MAX`` argument that is not an integer
    column, and for a ``SUM`` that could leave ``int64``.
    """
    if not group_indexes:
        return None
    arguments: List[Ints] = []
    for function, index in calls:
        if function == "COUNT" and index is None:
            continue
        column = batch.columns[index] if index is not None else None
        if function not in ("COUNT", *_REDUCERS) or not isinstance(column, Ints):
            return None
        arguments.append(column)
    np = numpy_or_none()
    _, first, inverse, counts = np.unique(
        _group_codes(np, batch, group_indexes),
        return_index=True,
        return_inverse=True,
        return_counts=True,
    )
    order = np.argsort(first)
    columns = batch.select(group_indexes).take(first[order]).columns
    sorter = np.argsort(inverse, kind="stable") if arguments else None
    starts = np.cumsum(counts) - counts
    for function, index in calls:
        if function == "COUNT":
            # COUNT(*) counts rows, COUNT(x) the non-ω values of x.
            if index is not None:
                counted = _present(np, arguments.pop(0), sorter, starts, counts)
            else:
                counted = counts
            columns.append(Ints(counted[order]))
            continue
        reduced = _reduce(np, function, arguments.pop(0), sorter, starts, counts)
        if reduced is None:
            return None
        values, nulls = reduced
        columns.append(Ints(values[order], None if nulls is None else nulls[order]))
    return Batch(columns, len(first))


def _present(np: Any, column: Ints, sorter: Any, starts: Any, counts: Any) -> Any:
    """Per group (as in :func:`_reduce`) the number of non-ω values."""
    if column.nulls is None or len(counts) == 0:
        return counts
    return np.add.reduceat((~column.nulls)[sorter].astype(np.int64), starts)


def _reduce(
    np: Any, function: str, column: Ints, sorter: Any, starts: Any, counts: Any
) -> Optional[Tuple[Any, Any]]:
    """Per group (in code order, rows grouped by ``sorter``, group ``g`` at
    ``starts[g]``) ``function`` over the non-ω values: ω for a group
    without any, ``None`` when a sum could leave ``int64``."""
    values = _ints(np, column.values)
    if len(counts) == 0:
        return values[:0], None
    present = None if column.nulls is None else ~column.nulls
    seen = _present(np, column, sorter, starts, counts)
    if function == "SUM":
        largest = max(abs(int(values.min())), abs(int(values.max())))
        if largest * len(values) >= 2**63:
            return None
    if present is not None:
        limits = np.iinfo(np.int64)
        fill = {"SUM": 0, "MIN": limits.max, "MAX": limits.min}[function]
        values = np.where(present, values, fill)
    reduced = getattr(np, _REDUCERS[function]).reduceat(values[sorter], starts)
    empty = seen == 0
    return reduced, (empty if empty.any() else None)
