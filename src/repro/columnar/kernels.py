"""Vectorized ALIGN/NORMALIZE kernels over columnar endpoint arrays.

The adjustment primitives reduce to an interval overlap join plus per-group
splitting (Sec. 5/6 of the paper) — work that is embarrassingly data-parallel
per tuple.  These kernels run it as whole-array operations: the overlap join
is a pair of ``searchsorted`` sweeps over endpoint arrays sorted by
``(key code, point)``, and piece generation is ragged-range arithmetic with
``repeat``/``cumsum``.  Result tuples are materialised only by the callers,
at the columnar/row boundary.

Every kernel has a pure-Python twin (``bisect`` over the same sorted arrays)
selected automatically when NumPy is unavailable — or on demand via the
``use_numpy`` argument — and both produce **identical** output, piece for
piece, in the same order.  That parity is a hard gate: the property tests and
``tests/engine/test_one_process_adjustment.py`` compare the kernels against
the row-at-a-time sweep on every run.

Pair semantics
--------------

A pair ``(i, j)`` matches iff the key codes are equal and non-negative and
``l.start < r.end and r.start < l.end`` — the exact condition the planner
attaches to the group-construction join.  ``include_empty=True`` keeps
degenerate (empty-interval) rows in the candidate sets, reproducing the
engine pipeline's behaviour bit for bit; the relation-level operators pass
``False``, matching the plane sweep (an empty interval overlaps nothing).

The enumeration splits each left row's matches into two disjoint,
``searchsorted``-addressable classes (the same decomposition the
:class:`~repro.temporal.interval_index.IntervalIndex` uses):

* *starters* — right rows whose start lies strictly inside the left
  interval: a contiguous range of the right side sorted by (code, start);
* *straddlers* — pairs where the left start lies inside the right interval,
  enumerated from the right side as a contiguous range of the *left* side
  sorted by (code, start).

Total cost is ``O((n+m) log(n+m) + |pairs|)`` — the sweep bound, minus the
interpreter.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.columnar.runtime import numpy_or_none, resolve_use_numpy

#: Kernel output: parallel lists ``(left row position, start, end)``.
Pieces = Tuple[List[int], List[int], List[int]]

#: Keeps some candidate pairs between the two steps of :func:`align_pieces`:
#: called with the ``(left, right)`` position arrays in the backend's own
#: form (``int64`` arrays under NumPy, lists otherwise), returns the kept
#: pairs in the same form.
PairFilter = Callable[[Any, Any], Tuple[Any, Any]]


# -- public entry points ---------------------------------------------------------------


def overlap_pairs(
    l_starts,
    l_ends,
    l_codes,
    r_starts,
    r_ends,
    r_codes,
    use_numpy: Optional[bool] = None,
    include_empty: bool = False,
) -> Tuple[List[int], List[int]]:
    """Matching ``(left position, right position)`` pairs of the overlap join.

    The first step of :func:`align_pieces`, exposed for the relation-level
    aligner: it filters the pairs with an opaque θ and hands the survivors
    to :func:`pieces_from_pairs`, the second step.
    """
    if resolve_use_numpy(use_numpy):
        np = numpy_or_none()
        li, ri = _np_pairs(
            np,
            *_np_inputs(np, l_starts, l_ends, l_codes, r_starts, r_ends, r_codes),
            include_empty=include_empty,
        )
        return li.tolist(), ri.tolist()
    return _py_pairs(l_starts, l_ends, l_codes, r_starts, r_ends, r_codes, include_empty)


def align_pieces(
    l_starts,
    l_ends,
    l_codes,
    r_starts,
    r_ends,
    r_codes,
    use_numpy: Optional[bool] = None,
    include_empty: bool = False,
    pair_filter: Optional[PairFilter] = None,
) -> Pieces:
    """The temporal aligner, batched: intersections and gaps per left row.

    The composition of the two steps — candidate pairs (key codes +
    overlap), then pieces from pairs — with ``pair_filter``, when given,
    deciding between them which candidates stay (a residual θ).

    Output pieces appear grouped by left row (ascending position) and, within
    a row, in plane-sweep order — exactly the stream the row-at-a-time
    ``AdjustmentNode`` emits.  Left rows without any match keep their full
    interval; empty left intervals produce nothing (unless ``include_empty``
    reproduces the engine's degenerate-piece behaviour).
    """
    if resolve_use_numpy(use_numpy):
        np = numpy_or_none()
        ls, le, lc, rs, re, rc = _np_inputs(
            np, l_starts, l_ends, l_codes, r_starts, r_ends, r_codes
        )
        if len(ls) == 0:
            return [], [], []
        # One distinct-endpoint array serves both steps (the dominant sort).
        vals = np.unique(np.concatenate([ls, le, rs, re]))
        li, ri = _np_pairs(np, ls, le, lc, rs, re, rc, include_empty, vals=vals)
        if pair_filter is not None:
            li, ri = pair_filter(li, ri)
        return _np_pieces(np, ls, le, rs, re, li, ri, include_empty, vals=vals)
    ls, le = list(l_starts), list(l_ends)
    rs, re = list(r_starts), list(r_ends)
    if not ls:
        return [], [], []
    li, ri = _py_pairs(ls, le, l_codes, rs, re, r_codes, include_empty)
    if pair_filter is not None:
        li, ri = pair_filter(li, ri)
    return _py_pieces(ls, le, rs, re, li, ri, include_empty)


def pieces_from_pairs(
    l_starts,
    l_ends,
    r_starts,
    r_ends,
    li,
    ri,
    use_numpy: Optional[bool] = None,
    include_empty: bool = False,
) -> Pieces:
    """The aligner's second step: pieces from already-chosen matching pairs.

    ``(li[k], ri[k])`` are the ``(left, right)`` positions of the pairs that
    make up each left row's group, in any order; they must overlap (or be
    degenerate pairs under ``include_empty``), as :func:`overlap_pairs`
    guarantees.  The output is :func:`align_pieces`' for exactly those
    groups.
    """
    if resolve_use_numpy(use_numpy):
        np = numpy_or_none()

        def ints(values: Any) -> Any:
            return np.asarray(values, dtype=np.int64)

        ls = ints(l_starts)
        if len(ls) == 0:
            return [], [], []
        return _np_pieces(
            np, ls, ints(l_ends), ints(r_starts), ints(r_ends), ints(li), ints(ri), include_empty
        )
    return _py_pieces(
        list(l_starts), list(l_ends), list(r_starts), list(r_ends), li, ri, include_empty
    )


def normalize_pieces(
    l_starts,
    l_ends,
    l_codes,
    points,
    point_codes,
    use_numpy: Optional[bool] = None,
) -> Pieces:
    """The temporal splitter, batched: split each left interval at the
    key-matching points that fall strictly inside it.

    ``points``/``point_codes`` is the already-extracted split-point column
    (the engine's ``π_{B,Ts}(s) ∪ π_{B,Te}(s)``); duplicates are welcome and
    deduplicated here.  Points with negative codes never match.
    """
    if resolve_use_numpy(use_numpy):
        np = numpy_or_none()
        ls = np.asarray(l_starts, dtype=np.int64)
        le = np.asarray(l_ends, dtype=np.int64)
        lc = np.asarray(l_codes, dtype=np.int64)
        pts = np.asarray(points, dtype=np.int64)
        pc = np.asarray(point_codes, dtype=np.int64)
        return _np_normalize(np, ls, le, lc, pts, pc)
    return _py_normalize(l_starts, l_ends, l_codes, points, point_codes)


def normalize_pieces_from_intervals(
    l_starts,
    l_ends,
    l_codes,
    r_starts,
    r_ends,
    r_codes,
    use_numpy: Optional[bool] = None,
    include_empty: bool = False,
) -> Pieces:
    """:func:`normalize_pieces` with the point column derived from reference
    intervals (both endpoints of every key-matched reference row).

    ``include_empty=False`` skips empty reference intervals — the
    relation-level semantics (an empty tuple belongs to no group, Def. 9).
    """
    if resolve_use_numpy(use_numpy):
        np = numpy_or_none()
        rs = np.asarray(r_starts, dtype=np.int64)
        re = np.asarray(r_ends, dtype=np.int64)
        rc = np.asarray(r_codes, dtype=np.int64)
        keep = rc >= 0 if include_empty else (rc >= 0) & (re > rs)
        # Interleaved (start, end) per kept row: the order the loop below
        # appends in, so both backends hand the kernel the same column.
        return normalize_pieces(
            l_starts,
            l_ends,
            l_codes,
            np.stack((rs[keep], re[keep]), axis=1).ravel(),
            np.repeat(rc[keep], 2),
            use_numpy=True,
        )
    points: List[int] = []
    codes: List[int] = []
    for start, end, code in zip(r_starts, r_ends, r_codes):
        if code < 0:
            continue
        if not include_empty and end <= start:
            continue
        points.append(start)
        codes.append(code)
        points.append(end)
        codes.append(code)
    return normalize_pieces(l_starts, l_ends, l_codes, points, codes, use_numpy=use_numpy)


# -- NumPy kernels -----------------------------------------------------------------------


def _np_inputs(np, l_starts, l_ends, l_codes, r_starts, r_ends, r_codes):
    return (
        np.asarray(l_starts, dtype=np.int64),
        np.asarray(l_ends, dtype=np.int64),
        np.asarray(l_codes, dtype=np.int64),
        np.asarray(r_starts, dtype=np.int64),
        np.asarray(r_ends, dtype=np.int64),
        np.asarray(r_codes, dtype=np.int64),
    )


def _np_pairs(np, ls, le, lc, rs, re, rc, include_empty, vals=None):
    """Enumerate matching pairs as two ``int64`` index arrays.

    Composite sort keys ``code * M + rank(point)`` (with ``rank`` the
    position in the array of all distinct endpoint values and ``M`` one past
    the largest rank) make a single ``searchsorted`` respect the
    lexicographic ``(code, point)`` order without overflow concerns.
    ``vals`` lets a caller that already holds the distinct-endpoint array
    (:func:`align_pieces`) share it instead of paying the dominant sort twice.
    """
    empty = np.empty(0, dtype=np.int64)
    if len(ls) == 0 or len(rs) == 0:
        return empty, empty

    if vals is None:
        vals = np.unique(np.concatenate([ls, le, rs, re]))
    M = np.int64(vals.size + 1)

    def rank(a):
        return np.searchsorted(vals, a)

    l_pairable = lc >= 0 if include_empty else (lc >= 0) & (le > ls)
    r_pairable = rc >= 0 if include_empty else (rc >= 0) & (re > rs)
    lsel = np.nonzero(l_pairable)[0]
    rsel = np.nonzero(r_pairable)[0]
    if lsel.size == 0 or rsel.size == 0:
        return empty, empty

    # Starters: right rows starting strictly inside the left interval.
    r_comp = rc[rsel] * M + rank(rs[rsel])
    r_order = np.argsort(r_comp, kind="stable")
    r_comp_sorted = r_comp[r_order]
    r_global = rsel[r_order]
    lo = np.searchsorted(r_comp_sorted, lc[lsel] * M + rank(ls[lsel]), side="right")
    hi = np.searchsorted(r_comp_sorted, lc[lsel] * M + rank(le[lsel]), side="left")
    counts = np.maximum(hi - lo, 0)
    li1 = np.repeat(lsel, counts)
    ri1 = r_global[_ragged_positions(np, lo, counts)]

    # Straddlers: the left start lies inside the right interval — a range of
    # the left side sorted by (code, start), enumerated per right row.
    l_comp = lc[lsel] * M + rank(ls[lsel])
    l_order = np.argsort(l_comp, kind="stable")
    l_comp_sorted = l_comp[l_order]
    l_global = lsel[l_order]
    lo2 = np.searchsorted(l_comp_sorted, rc[rsel] * M + rank(rs[rsel]), side="left")
    hi2 = np.searchsorted(l_comp_sorted, rc[rsel] * M + rank(re[rsel]), side="left")
    counts2 = np.maximum(hi2 - lo2, 0)
    ri2 = np.repeat(rsel, counts2)
    li2 = l_global[_ragged_positions(np, lo2, counts2)]
    # Degenerate left rows need the strict half of the predicate re-checked.
    strict = rs[ri2] < le[li2]
    li2, ri2 = li2[strict], ri2[strict]

    return np.concatenate([li1, li2]), np.concatenate([ri1, ri2])


def _ragged_positions(np, offsets, counts):
    """Concatenate the ranges ``offsets[k] : offsets[k] + counts[k]``."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return np.repeat(offsets, counts) + within


def _np_pieces(np, ls, le, rs, re, li, ri, include_empty, vals=None):
    """Pieces of every left row from its matching pairs ``(li, ri)``.

    ``vals`` must hold every intersection end ``min(le[i], re[j])``; without
    it the distinct ends of the given pairs are ranked.
    """
    n = len(ls)
    out_rows: List = []
    out_starts: List = []
    out_ends: List = []
    out_seq: List = []

    if li.size:
        p1 = np.maximum(ls[li], rs[ri])
        p2 = np.minimum(le[li], re[ri])
        if vals is None:
            vals = np.unique(p2)
        M = np.int64(vals.size + 1)
        order = np.lexsort((p2, p1, li))
        gi, q1, q2 = li[order], p1[order], p2[order]
        K = gi.size

        new_group = np.empty(K, dtype=bool)
        new_group[0] = True
        new_group[1:] = gi[1:] != gi[:-1]
        keep = np.empty(K, dtype=bool)
        keep[0] = True
        keep[1:] = new_group[1:] | (q1[1:] != q1[:-1]) | (q2[1:] != q2[:-1])

        # Sweep position before pair k = max(Ts, ends of earlier group pairs),
        # via a prefix max over ``group * M + rank(end)`` (groups ascend, so
        # the accumulate self-resets at group boundaries).
        acc = np.maximum.accumulate(gi * M + np.searchsorted(vals, q2))
        prev_end = np.empty(K, dtype=np.int64)
        prev_end[0] = 0
        prev_end[1:] = vals[acc[:-1] % M]
        cov = np.where(new_group, ls[gi], prev_end)
        gap = cov < q1

        last = np.empty(K, dtype=bool)
        last[-1] = True
        last[:-1] = gi[1:] != gi[:-1]
        cov_end = np.maximum(ls[gi], vals[acc % M])
        trail = last & (cov_end < le[gi])

        seq = 2 * np.arange(K, dtype=np.int64)
        out_rows.append(gi[gap])
        out_starts.append(cov[gap])
        out_ends.append(q1[gap])
        out_seq.append(seq[gap])
        out_rows.append(gi[keep])
        out_starts.append(q1[keep])
        out_ends.append(q2[keep])
        out_seq.append(seq[keep] + 1)
        out_rows.append(gi[trail])
        out_starts.append(cov_end[trail])
        out_ends.append(le[gi[trail]])
        out_seq.append(np.full(int(trail.sum()), 2 * K + 1, dtype=np.int64))

    has_pair = np.zeros(n, dtype=bool)
    if li.size:
        has_pair[li] = True
    # An unmatched row passes through with its own bounds.  In engine mode
    # that includes degenerate rows: the serial pipeline's GREATEST/LEAST
    # projections turn a dangling outer-join row's null bounds into
    # ``(Ts, Te)``, so its sweep emits the row even when ``Ts == Te``.  The
    # relation-level semantics (empty interval ⇒ no output) keep the filter.
    if include_empty:
        dangling = np.nonzero(~has_pair)[0]
    else:
        dangling = np.nonzero(~has_pair & (le > ls))[0]
    out_rows.append(dangling)
    out_starts.append(ls[dangling])
    out_ends.append(le[dangling])
    out_seq.append(np.zeros(dangling.size, dtype=np.int64))

    rows = np.concatenate(out_rows)
    starts = np.concatenate(out_starts)
    ends = np.concatenate(out_ends)
    seq = np.concatenate(out_seq)
    order = np.lexsort((seq, rows))
    return rows[order].tolist(), starts[order].tolist(), ends[order].tolist()


def _np_normalize(np, ls, le, lc, pts, pc):
    n = len(ls)
    if n == 0:
        return [], [], []
    live = np.nonzero(le > ls)[0]
    if live.size == 0:
        return [], [], []

    usable = pc >= 0
    pts_u, pc_u = pts[usable], pc[usable]
    if pts_u.size:
        vals = np.unique(np.concatenate([ls, le, pts_u]))
        M = np.int64(vals.size + 1)
        comp = pc_u * M + np.searchsorted(vals, pts_u)
        order = np.argsort(comp, kind="stable")
        comp_sorted = comp[order]
        val_sorted = pts_u[order]
        first = np.empty(comp_sorted.size, dtype=bool)
        first[0] = True
        first[1:] = comp_sorted[1:] != comp_sorted[:-1]
        comp_sorted, val_sorted = comp_sorted[first], val_sorted[first]

        lo = np.searchsorted(
            comp_sorted, lc[live] * M + np.searchsorted(vals, ls[live]), side="right"
        )
        hi = np.searchsorted(
            comp_sorted, lc[live] * M + np.searchsorted(vals, le[live]), side="left"
        )
        counts = np.maximum(hi - lo, 0)
    else:
        val_sorted = pts_u
        lo = np.zeros(live.size, dtype=np.int64)
        counts = np.zeros(live.size, dtype=np.int64)

    # Piece assembly: row i contributes counts[i] + 1 pieces whose interior
    # bounds are the gathered split points.
    pieces = counts + 1
    offsets = np.cumsum(pieces)
    begin = offsets - pieces
    total = int(offsets[-1])
    rows = np.repeat(live, pieces)
    starts = np.empty(total, dtype=np.int64)
    ends = np.empty(total, dtype=np.int64)
    starts[begin] = ls[live]
    ends[offsets - 1] = le[live]
    if int(counts.sum()):
        interior = val_sorted[_ragged_positions(np, lo, counts)]
        slots = _ragged_positions(np, begin, counts)
        starts[slots + 1] = interior
        ends[slots] = interior
    return rows.tolist(), starts.tolist(), ends.tolist()


# -- pure-Python kernels ------------------------------------------------------------------


def _py_pairs(
    l_starts, l_ends, l_codes, r_starts, r_ends, r_codes, include_empty
) -> Tuple[List[int], List[int]]:
    """The bisect twin of :func:`_np_pairs` (same classes, same predicate)."""
    ls, le, lc = list(l_starts), list(l_ends), list(l_codes)
    rs, re, rc = list(r_starts), list(r_ends), list(r_codes)

    by_code_right: Dict[int, List[Tuple[int, int]]] = {}
    for j, code in enumerate(rc):
        if code < 0 or (not include_empty and re[j] <= rs[j]):
            continue
        by_code_right.setdefault(code, []).append((rs[j], j))
    by_code_left: Dict[int, List[Tuple[int, int]]] = {}
    for i, code in enumerate(lc):
        if code < 0 or (not include_empty and le[i] <= ls[i]):
            continue
        by_code_left.setdefault(code, []).append((ls[i], i))
    for entries in by_code_right.values():
        entries.sort()
    for entries in by_code_left.values():
        entries.sort()

    li: List[int] = []
    ri: List[int] = []
    for code, left_entries in by_code_left.items():
        right_entries = by_code_right.get(code)
        if not right_entries:
            continue
        starts_only = [start for start, _ in right_entries]
        for start, i in left_entries:
            for k in range(
                bisect_right(starts_only, start), bisect_left(starts_only, le[i])
            ):
                li.append(i)
                ri.append(right_entries[k][1])
    for code, right_entries in by_code_right.items():
        left_entries = by_code_left.get(code)
        if not left_entries:
            continue
        starts_only = [start for start, _ in left_entries]
        for start, j in right_entries:
            for k in range(
                bisect_left(starts_only, start), bisect_left(starts_only, re[j])
            ):
                i = left_entries[k][1]
                if start < le[i]:
                    li.append(i)
                    ri.append(j)
    return li, ri


def _py_pieces(
    ls: List[int],
    le: List[int],
    rs: List[int],
    re: List[int],
    li: Sequence[int],
    ri: Sequence[int],
    include_empty: bool,
) -> Pieces:
    """The twin of :func:`_np_pieces`: a plane sweep per left row's group."""
    emit_empty_dangling = include_empty  # engine mode, see the NumPy twin
    by_left: Dict[int, List[Tuple[int, int]]] = {}
    for i, j in zip(li, ri):
        by_left.setdefault(i, []).append((max(ls[i], rs[j]), min(le[i], re[j])))

    rows: List[int] = []
    starts: List[int] = []
    ends: List[int] = []

    def emit(i: int, a: int, b: int) -> None:
        rows.append(i)
        starts.append(a)
        ends.append(b)

    for i in range(len(ls)):
        bounds = by_left.get(i)
        if not bounds:
            if emit_empty_dangling or le[i] > ls[i]:
                emit(i, ls[i], le[i])
            continue
        bounds.sort()
        sweep = ls[i]
        previous = None
        for a, b in bounds:
            if sweep < a:
                emit(i, sweep, a)
                sweep = a
            if (a, b) != previous:
                emit(i, a, b)
                previous = (a, b)
            if b > sweep:
                sweep = b
        if sweep < le[i]:
            emit(i, sweep, le[i])
    return rows, starts, ends


def _py_normalize(l_starts, l_ends, l_codes, points, point_codes) -> Pieces:
    by_code: Dict[int, List[int]] = {}
    for point, code in zip(points, point_codes):
        if code >= 0:
            by_code.setdefault(code, []).append(point)
    split_points = {code: sorted(set(pts)) for code, pts in by_code.items()}

    rows: List[int] = []
    starts: List[int] = []
    ends: List[int] = []
    for i, (start, end, code) in enumerate(zip(l_starts, l_ends, l_codes)):
        if end <= start:
            continue
        pts: Sequence[int] = split_points.get(code, ())
        interior = pts[bisect_right(pts, start) : bisect_left(pts, end)]
        bounds = [start, *interior, end]
        for a, b in zip(bounds, bounds[1:]):
            rows.append(i)
            starts.append(a)
            ends.append(b)
    return rows, starts, ends
