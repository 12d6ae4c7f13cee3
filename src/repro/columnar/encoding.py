"""Columnar encoding of temporal relations.

A :class:`ColumnarFrame` is the batch representation the vectorized kernels
consume: the interval endpoints of every tuple as two parallel ``int64``
arrays, plus a dictionary-encoded equality-key column (one dense code per
distinct key value, ``-1`` reserved for "matches nothing").  Row positions
double as backrefs — entry ``i`` describes ``relation.tuples()[i]``, which is
how kernel output is materialised back into tuples only at the boundary.

Encodings are cached on the relation through
:meth:`TemporalRelation.derived`, split into entries so independent key sets
share the endpoint arrays:

* ``("columnar", "endpoints", backend)`` — the ``starts``/``ends`` arrays;
* ``("columnar", "keys", backend, attrs)`` — codes + dictionary per key set;
* ``("columnar", "groups", backend, attrs)`` — the row positions of each
  code, for :func:`positions_with_codes`;
* ``("columnar", "row_order", "np")`` — positions of the tuples, as engine
  rows, in the executor's sort order with exact duplicates dropped (built by
  :func:`repro.columnar.rows.arrays_from_frames`, the engine's reader).

All entries are dropped by the relation's ``_after_mutation`` funnel like
every other derived structure, so a cached frame can never describe stale
tuples.  ``backend`` distinguishes NumPy arrays from the pure-Python list
fallback (the two must not be mixed when tests force the fallback on).

Two readers share the frames: the relation-level operators of
:mod:`repro.core` and the engine's ``ColumnarAdjustment`` node.  The engine
reads a registered relation in place, its frames together with its scanned
rows (:func:`repro.engine.table.relation_rows`, another entry of the same
cache), both when the node executes, so the two always describe the same
tuples.
"""

from __future__ import annotations

from itertools import accumulate
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.columnar.runtime import numpy_or_none
from repro.relation.tuple import is_null

if TYPE_CHECKING:  # pragma: no cover
    from repro.relation.relation import TemporalRelation

#: Dictionary code meaning "this row's key matches no row of the other side".
NO_MATCH = -1


class ColumnarFrame:
    """Endpoint arrays + dictionary-encoded key column of one relation.

    ``starts``/``ends``/``codes`` are parallel to the relation's tuple list
    (insertion order); ``key_index`` maps key value tuples to dense codes.
    Arrays are ``numpy.int64`` when NumPy is active, plain lists otherwise.
    """

    __slots__ = ("starts", "ends", "codes", "key_index")

    def __init__(self, starts: Any, ends: Any, codes: Any, key_index: Dict[Hashable, int]):
        self.starts = starts
        self.ends = ends
        self.codes = codes
        self.key_index = key_index

    def __len__(self) -> int:
        return len(self.starts)


def _backend() -> str:
    return "np" if numpy_or_none() is not None else "py"


def _int_array(values: List[int]) -> Any:
    np = numpy_or_none()
    if np is None:
        return values
    return np.asarray(values, dtype=np.int64)


def encode_keys(
    keys: Sequence[Hashable], key_index: Optional[Dict[Hashable, int]] = None
) -> Tuple[Any, Dict[Hashable, int]]:
    """Dictionary-encode a key sequence into dense integer codes.

    With ``key_index`` given, codes come from that dictionary and unseen keys
    get :data:`NO_MATCH`; otherwise a fresh dictionary is built (first
    occurrence order).  Returns ``(codes, key_index)``.
    """
    if key_index is None:
        key_index = {}
        codes: List[int] = []
        for key in keys:
            code = key_index.setdefault(key, len(key_index))
            codes.append(code)
    else:
        codes = [key_index.get(key, NO_MATCH) for key in keys]
    return _int_array(codes), key_index


def encode_relation(relation: TemporalRelation, attributes: Sequence[str] = ()) -> ColumnarFrame:
    """The (lazily built, cached) columnar frame of ``relation``.

    ``attributes`` name the equality key (normalization's ``B`` attributes or
    the equi part of an alignment θ); the empty sequence encodes every tuple
    under one shared code.  Repeated adjustments against the same reference
    therefore pay the encoding pass once, and a maintained view encodes
    only its changed tuples into the cached dictionary
    (:func:`encode_keys` with ``key_index``).
    """
    attrs = tuple(attributes)
    backend = _backend()

    def build_endpoints() -> Tuple[Any, Any]:
        starts: List[int] = []
        ends: List[int] = []
        for t in relation:
            starts.append(t.start)
            ends.append(t.end)
        return _int_array(starts), _int_array(ends)

    def build_keys() -> Tuple[Any, Dict[Hashable, int]]:
        if attrs:
            key = relation.schema.key_getter(attrs)
            return encode_keys([key(t.values) for t in relation])
        return encode_keys([()] * len(relation))

    starts, ends = relation.derived(("columnar", "endpoints", backend), build_endpoints)
    codes, key_index = relation.derived(("columnar", "keys", backend, attrs), build_keys)
    return ColumnarFrame(starts, ends, codes, key_index)


def positions_with_codes(
    relation: TemporalRelation, attributes: Sequence[str], codes: Any
) -> Optional[Any]:
    """Positions of ``relation``'s rows whose key code under ``attributes``
    is one of ``codes`` (``None`` when that is every row); a key containing
    ``ω`` matches nothing (:func:`without_null_keys`).  The code-sorted
    positions and an offset per code are one derived entry, built once per
    relation state, so a call costs O(len(codes) + rows returned)."""
    attrs = tuple(attributes)
    np = numpy_or_none()

    def build_groups() -> Tuple[Any, List[int]]:
        frame = encode_relation(relation, attrs)
        (row_codes,) = without_null_keys(frame.key_index, frame.codes)
        if np is None:
            groups: List[List[int]] = [[] for _ in frame.key_index]
            for position, code in enumerate(row_codes):
                if code >= 0:
                    groups[code].append(position)
            return [p for group in groups for p in group], [0, *accumulate(map(len, groups))]
        order = np.argsort(row_codes, kind="stable")  # ω rows (-1) come first
        offsets = np.searchsorted(row_codes[order], np.arange(len(frame.key_index) + 1))
        return order, offsets.tolist()

    order, offsets = relation.derived(("columnar", "groups", _backend(), attrs), build_groups)
    wanted = sorted({c for c in codes if c >= 0}) if np is None else np.unique(codes[codes >= 0])
    spans = [order[offsets[code] : offsets[code + 1]] for code in wanted]
    if sum(map(len, spans)) == len(relation):
        return None
    if np is None:
        return [position for span in spans for position in span]
    return np.concatenate(spans) if spans else order[:0]


def remap_codes(frame: ColumnarFrame, target: ColumnarFrame) -> Any:
    """Re-express ``frame``'s codes in ``target``'s dictionary.

    The overlap kernels compare codes for equality, so both sides must speak
    the same dictionary; the reference side's dictionary wins and argument
    keys it never saw become :data:`NO_MATCH`.  A shared dictionary object
    (self-adjustment, or two frames of the same cached relation) passes
    through untouched.
    """
    if frame.key_index is target.key_index:
        return frame.codes
    table = [NO_MATCH] * (len(frame.key_index) + 1)
    for key, code in frame.key_index.items():
        table[code] = target.key_index.get(key, NO_MATCH)
    np = numpy_or_none()
    if np is not None and not isinstance(frame.codes, list):
        lookup = np.asarray(table + [NO_MATCH], dtype=np.int64)
        return lookup[frame.codes]
    return [table[code] if code >= 0 else NO_MATCH for code in frame.codes]


def without_null_keys(key_index: Dict[Hashable, int], *codes: Any) -> Tuple[Any, ...]:
    """``codes`` — arrays in ``key_index``'s dictionary — with every key that
    contains ``ω`` mapped to :data:`NO_MATCH`.

    An equality over ``ω`` is false in the engine, so a row with such a key
    joins nothing, not even another ``ω`` key.  The check runs once per
    distinct key, not per row; with no such key the arrays pass through.
    """
    null_codes = [
        code
        for key, code in key_index.items()
        if isinstance(key, tuple) and any(map(is_null, key))
    ]
    if not null_codes:
        return codes
    # One spare slot at the end, so that NO_MATCH (-1) maps to itself.
    table = list(range(len(key_index))) + [NO_MATCH]
    for code in null_codes:
        table[code] = NO_MATCH
    np = numpy_or_none()
    return tuple(
        [table[code] for code in column]
        if isinstance(column, list)
        else np.asarray(table, dtype=np.int64)[column]
        for column in codes
    )
