"""Engine adapter: run an :class:`AdjustmentTask` through the columnar kernels.

An ``AdjustmentTask`` describes one ALIGN/NORMALIZE of the engine; this
module executes it as whole-array kernels and returns exactly the rows the
reference row plan (``Settings(enable_columnar=False)``: join → project →
sort → plane sweep) produces — same values, same order (left rows sorted by
the engine's comparator, pieces in sweep order), same treatment of
duplicate left rows (the plan's partition sort makes them one group) and of
null join keys (an equality θ over ``ω`` is false, so such rows stay
dangling).

The work is split in two.  *Obtaining the arrays* has two sources:

* :func:`arrays_from_rows` encodes the drained rows of both inputs — any
  input at all;
* :func:`arrays_from_frames` reads the frames cached on the two relations
  (:func:`~repro.columnar.encoding.encode_relation`) when both inputs are
  unmodified snapshots of registered relations, so repeated adjustments pay
  no per-row Python work.

*Kernel → batch* (:func:`batch_from_arrays`) is shared: one kernel call
whose output stays columns (:class:`~repro.columnar.batch.Batch`) until
:meth:`~repro.columnar.batch.Batch.materialize` builds the rows — the one
array → row tail.  The sources differ in cost only, never in output.  Both
carry the reference rows, so an alignment whose θ is more than its key
equalities filters the kernel's candidate pairs with the rest of θ (the
*residual*) between the pair and piece steps — as one NumPy mask where the
expression compiles, else per pair with the row plan's own bound
expression.

Bounds that are not all ``int64`` integers (floats, fractions, strings:
anything an engine row may hold) run the pure-Python kernels over the raw
values; an argument row whose bound is ``ω`` is a
:class:`~repro.relation.errors.QueryError`, as in the row plan.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.columnar import kernels
from repro.columnar.batch import Batch, Cache, Gathered, Ints, Source
from repro.columnar.encoding import encode_keys, encode_relation, remap_codes, without_null_keys
from repro.columnar.runtime import numpy_available, numpy_or_none
from repro.relation.tuple import compare_values, is_null

if TYPE_CHECKING:  # pragma: no cover
    from repro.relation.relation import TemporalRelation

Row = Tuple[Any, ...]


class AdjustmentArrays(NamedTuple):
    """Kernel input of one adjustment, whichever source produced it.

    ``rows`` are the argument rows in output order (engine sort order, exact
    duplicates collapsed); ``l_*`` are parallel to them.  The reference side
    is either intervals (``r_starts``/``r_ends``) or, for a normalization
    fed the split-point projection, a point column in ``r_starts`` with
    ``r_ends`` ``None``; ``r_rows`` are the rows the ``r_*`` entries
    describe, which a residual θ reads.  ``cache`` is the argument
    relation's build-once cache when ``rows`` are read off it, so the
    batch's value codes over them persist (see
    :class:`~repro.columnar.batch.Source`).  ``integral`` is false when a
    bound is not an ``int64`` integer: only the pure-Python kernels take
    such values.
    """

    rows: Sequence[Row]
    l_starts: Any
    l_ends: Any
    l_codes: Any
    r_rows: Sequence[Row]
    r_starts: Any
    r_ends: Optional[Any]
    r_codes: Any
    cache: Optional[Cache] = None
    integral: bool = True


def kernel_mode(arrays: AdjustmentArrays) -> str:
    """Which kernel backend a columnar execution of ``arrays`` uses right now."""
    return "numpy" if arrays.integral and numpy_available() else "python"


def _row_compare(left: Row, right: Row) -> int:
    for a, b in zip(left, right):
        result = compare_values(a, b)
        if result != 0:
            return result
    return 0


def sorted_unique_positions(rows: Sequence[Row]) -> List[int]:
    """Positions of ``rows`` in the engine sort order, exact duplicates dropped.

    Plain tuple comparison is the fast path; heterogeneous columns fall back
    to the executor's total order (type-name tie-break), keeping the output
    order identical to the serial plan's partition sort.  Of equal rows the
    first one stays.
    """
    try:
        order = sorted(range(len(rows)), key=rows.__getitem__)
    except TypeError:
        compare = functools.cmp_to_key(_row_compare)
        order = sorted(range(len(rows)), key=lambda i: compare(rows[i]))
    unique: List[int] = []
    previous: Optional[Row] = None
    for position in order:
        row = rows[position]
        if previous is None or row != previous:
            unique.append(position)
            previous = row
    return unique


def _sorted_unique(rows: Sequence[Row]) -> List[Row]:
    """Left rows in the engine sort order, exact duplicates collapsed."""
    return [rows[position] for position in sorted_unique_positions(rows)]


def _argument_bounds(task: Any, rows: Sequence[Row], index: int) -> List[Any]:
    """Bound column ``index`` of the argument rows; ω there is an error."""
    values = [row[index] for row in rows]
    if any(map(is_null, values)):
        from repro.engine.executor.adjustment import null_bound_error

        raise null_bound_error(task.left_columns[index])
    return values


def _int64(values: Sequence[Any]) -> bool:
    """Whether ``values`` are all ``int`` within ``int64`` (NumPy's bounds)."""
    if not values:
        return True
    return set(map(type, values)) == {int} and -(2**63) <= min(values) and max(values) < 2**63


def _key_codes(
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    key_pairs: Sequence[Tuple[int, int]],
) -> Tuple[Any, Any]:
    """Dictionary-encode the equality keys of both sides into shared codes
    (the right side's dictionary); a key containing ``ω`` matches nothing
    (:func:`~repro.columnar.encoding.without_null_keys`)."""
    if not key_pairs:
        return [0] * len(left_rows), [0] * len(right_rows)
    right_keys = [tuple(row[j] for _, j in key_pairs) for row in right_rows]
    left_keys = [tuple(row[i] for i, _ in key_pairs) for row in left_rows]
    right_codes, key_index = encode_keys(right_keys)
    left_codes, _ = encode_keys(left_keys, key_index)
    left_codes, right_codes = without_null_keys(key_index, left_codes, right_codes)
    return left_codes, right_codes


def arrays_from_rows(
    task: Any, left_rows: Sequence[Row], right_rows: Sequence[Row]
) -> AdjustmentArrays:
    """Encode the drained rows of both inputs (works for every input).

    Args:
        task: An
            :class:`~repro.engine.executor.columnar_adjustment.AdjustmentTask`;
            only its structural fields are read, so any object with the same
            attributes works.
        left_rows: Rows of the argument input (``group_width`` columns).
        right_rows: Rows of the reference input — the raw reference for
            alignment, the split-point projection for normalization.

    Raises:
        QueryError: When an argument row has ω as an interval bound.
    """
    unique = _sorted_unique(left_rows)
    l_starts = _argument_bounds(task, unique, task.ts_index)
    l_ends = _argument_bounds(task, unique, task.te_index)
    r_ends: Optional[List[Any]] = None
    if task.isalign:
        right_ts, right_te = task.bounds[2], task.bounds[3]
        # Rows with null bounds never satisfy the overlap condition: drop
        # them before encoding (the serial join filters them the same way).
        usable = [
            row
            for row in right_rows
            if not (is_null(row[right_ts]) or is_null(row[right_te]))
        ]
        r_starts = [row[right_ts] for row in usable]
        r_ends = [row[right_te] for row in usable]
    else:
        point_index = len(task.right_columns) - 1
        usable = [row for row in right_rows if not is_null(row[point_index])]
        r_starts = [row[point_index] for row in usable]
    l_codes, r_codes = _key_codes(unique, usable, task.key_pairs)
    return AdjustmentArrays(
        unique,
        l_starts,
        l_ends,
        l_codes,
        usable,
        r_starts,
        r_ends,
        r_codes,
        integral=all(map(_int64, (l_starts, l_ends, r_starts, r_ends or ()))),
    )


def arrays_from_frames(
    rows: Sequence[Row],
    argument: TemporalRelation,
    argument_keys: Sequence[str],
    reference_rows: Sequence[Row],
    reference: TemporalRelation,
    reference_keys: Sequence[str],
) -> AdjustmentArrays:
    """Read both sides off the relations' cached columnar frames.

    ``rows`` must be ``argument``'s tuples as engine rows, position for
    position (:func:`~repro.engine.table.relation_rows`), and
    ``reference_rows`` likewise ``reference``'s; the
    key attribute lists are positionally paired.  Nothing here walks rows in
    Python after the first call: the frames and the argument's sorted-unique
    row order are cached on the relations and dropped by their mutation
    funnel.  Relation bounds are integers by construction.  Requires NumPy.
    """
    np = numpy_or_none()
    left = encode_relation(argument, argument_keys)
    right = encode_relation(reference, reference_keys)
    order = argument.derived(
        ("columnar", "row_order", "np"),
        lambda: np.asarray(sorted_unique_positions(rows), dtype=np.intp),
    )
    l_codes, r_codes = without_null_keys(
        right.key_index, remap_codes(left, right)[order], right.codes
    )
    return AdjustmentArrays(
        [rows[position] for position in order.tolist()],
        left.starts[order],
        left.ends[order],
        l_codes,
        reference_rows,
        right.starts,
        right.ends,
        r_codes,
        argument.derived,
    )


def _residual_filter(
    task: Any, arrays: AdjustmentArrays, facts: Dict[str, Any]
) -> kernels.PairFilter:
    """``task.residual`` over the candidate pairs of ``arrays``.

    NumPy pairs get one mask when the expression compiles and the batch's
    values fit it (:func:`~repro.engine.expressions.compile_pair_mask`);
    otherwise the bound expression runs per pair — the predicate the row
    plan's join evaluates, over the same combined row.
    """
    from repro.engine.expressions import compile_pair_mask

    residual = task.residual
    left_rows, right_rows = arrays.rows, arrays.r_rows
    program = compile_pair_mask(residual, task.left_columns, task.right_columns)

    def keep(li: Any, ri: Any) -> Tuple[Any, Any]:
        numpy_pairs = not isinstance(li, list)
        mask: Any = None
        if numpy_pairs and program is not None:
            mask = program(left_rows, right_rows, li, ri)
        facts.update(residual="pairs" if mask is None else "numpy", pairs=len(li))
        if mask is None:
            bound = residual.bind(task.left_columns + task.right_columns)
            li, ri = kernels.keep_pairs(li, ri, lambda i, j: bound(left_rows[i] + right_rows[j]))
        else:
            li, ri = li[mask], ri[mask]
        facts["kept"] = len(li)
        return li, ri

    return keep


def batch_from_arrays(
    task: Any, arrays: AdjustmentArrays, facts: Optional[Dict[str, Any]] = None
) -> Batch:
    """Run the kernel of ``task`` over ``arrays``; its output as a batch.

    An alignment with a residual θ (``task.residual``) keeps the candidate
    pairs θ accepts; ``facts``, when given, then receives how θ ran
    (``residual=numpy|pairs``) and how many pairs it saw and kept.

    Returns:
        The row plan's output, in its order: ``ts``/``te`` the piece
        bounds, every other column gathered from ``arrays.rows``.  Bounds
        that are not ``int64`` (``arrays.integral`` false) run the
        pure-Python kernels and are handed on as finished rows.
    """
    use_numpy = None if arrays.integral else False
    left = arrays.l_starts, arrays.l_ends, arrays.l_codes
    if task.isalign:
        pair_filter = None
        if task.residual is not None:
            pair_filter = _residual_filter(task, arrays, {} if facts is None else facts)
        rows_idx, starts, ends = kernels.align_pieces(
            *left,
            arrays.r_starts,
            arrays.r_ends,
            arrays.r_codes,
            use_numpy=use_numpy,
            include_empty=True,
            pair_filter=pair_filter,
        )
    elif arrays.r_ends is None:
        rows_idx, starts, ends = kernels.normalize_pieces(
            *left, arrays.r_starts, arrays.r_codes, use_numpy=use_numpy
        )
    else:
        # Split points straight off the reference intervals; empty ones keep
        # their point, as in the split-point projection of the row plan.
        rows_idx, starts, ends = kernels.normalize_pieces_from_intervals(
            *left,
            arrays.r_starts,
            arrays.r_ends,
            arrays.r_codes,
            use_numpy=use_numpy,
            include_empty=True,
        )

    source = Source(arrays.rows, rows_idx, task.group_width, arrays.cache)
    bounds = {task.ts_index: Ints(starts), task.te_index: Ints(ends)}
    columns = [
        bounds[i] if i in bounds else Gathered(source, i) for i in range(task.group_width)
    ]
    batch = Batch(columns, len(rows_idx))
    if arrays.integral:
        return batch
    # The batch forms above read ``Ints`` as int64: give them rows instead.
    return Batch.from_rows(batch.materialize(), task.group_width)
