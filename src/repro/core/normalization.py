"""Temporal normalization ``N_B(r; s)`` (Def. 9).

Normalization adjusts the timestamps of ``r`` with respect to ``s``: the
interval of every ``r``-tuple is split at each start and end point of the
``s``-tuples that agree with it on the ``B`` attributes.  After normalizing
both arguments against each other, any two tuples with matching ``B`` values
have timestamps that are either equal or disjoint (Propositions 1 and 2),
which lets the group-based operators {π, ϑ, ∪, −, ∩} compare timestamps with
plain equality.

The implementation mirrors the kernel algorithm of Sec. 6.3: the group of
each ``r``-tuple is built by joining ``r`` with the split points of ``s``
(equality on ``B``), and a sweep over the sorted split points produces the
adjusted tuples.  By default the columnar kernels of :mod:`repro.columnar`
do that over cached arrays (:func:`adjust_columnar`, shared with
alignment); the ``"sweep"`` oracle partitions by ``B`` with a hash table
and sweeps per group — equivalent to the hash-join strategy the PostgreSQL
optimizer picks for the group-construction join.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.columnar import kernels
from repro.columnar.encoding import encode_relation, remap_codes
from repro.relation.errors import SchemaError
from repro.relation.relation import TemporalRelation
from repro.temporal.interval import Interval


NORMALIZE_STRATEGIES = ("sweep", "columnar")


def normalize(
    relation: TemporalRelation,
    reference: TemporalRelation,
    attributes: Sequence[str] = (),
    strategy: str = "columnar",
) -> TemporalRelation:
    """Compute ``N_B(relation; reference)`` for ``B = attributes``.

    ``attributes`` must be nontemporal attributes common to both schemas;
    the empty sequence (``N_{}``) splits against *all* reference tuples,
    which is the most expensive case evaluated in Fig. 14.

    ``strategy`` selects how the split pieces are computed: ``"columnar"``
    (default) encodes the endpoints and the ``B`` keys into cached arrays and
    generates the pieces with the batch kernels of :mod:`repro.columnar`
    (pure-Python twins when NumPy is absent); ``"sweep"``, the oracle,
    partitions by ``B`` with a hash table and sweeps the groups serially.
    Both produce the same relation.

    The result keeps the schema of ``relation``.  Every result tuple is
    derived from exactly one input tuple (its lineage); change preservation
    of the group-based operators follows from splitting only at group
    boundaries.
    """
    if strategy not in NORMALIZE_STRATEGIES:
        raise ValueError(
            f"unknown normalization strategy {strategy!r}; use one of {NORMALIZE_STRATEGIES}"
        )
    attrs = tuple(attributes)
    if attrs and not relation.schema.has_attributes(attrs):
        raise SchemaError(f"normalization attributes {attrs} missing from {relation.schema!r}")
    if attrs and not reference.schema.has_attributes(attrs):
        raise SchemaError(f"normalization attributes {attrs} missing from {reference.schema!r}")

    if strategy == "columnar":
        return adjust_columnar(
            relation, reference, attrs, attrs, kernels.normalize_pieces_from_intervals
        )

    points_by_key = split_points(reference, attrs)

    result = TemporalRelation(relation.schema)
    for r in relation:
        key = r.values_of(attrs) if attrs else ()
        points = points_by_key.get(key, ())
        for piece in _split_interval(r.interval, points):
            result.add(r.with_interval(piece))
    return result


def adjust_columnar(
    relation: TemporalRelation,
    reference: TemporalRelation,
    attributes: Sequence[str],
    reference_attributes: Sequence[str],
    kernel: Callable[..., kernels.Pieces],
    **options: Any,
) -> TemporalRelation:
    """One adjustment through the columnar kernels (see :mod:`repro.columnar`).

    Both relations are encoded once (cached on ``derived``, invalidated by
    the ``_after_mutation`` funnel), ``relation``'s key codes are remapped
    into ``reference``'s dictionary, and ``kernel`` —
    :func:`~repro.columnar.kernels.align_pieces` or
    :func:`~repro.columnar.kernels.normalize_pieces_from_intervals`, with
    ``options`` — computes every piece; tuples materialise only here, at
    the boundary.
    """
    left = encode_relation(relation, attributes)
    right = encode_relation(reference, reference_attributes)
    rows, starts, ends = kernel(
        left.starts,
        left.ends,
        remap_codes(left, right),
        right.starts,
        right.ends,
        right.codes,
        **options,
    )
    tuples = relation.tuples()
    result = TemporalRelation(relation.schema)
    add = result.add
    for i, start, end in zip(rows, starts, ends):
        add(tuples[i].with_interval(Interval(start, end)))
    return result


def normalize_pair(
    left: TemporalRelation,
    right: TemporalRelation,
    attributes: Optional[Sequence[str]] = None,
) -> Tuple[TemporalRelation, TemporalRelation]:
    """Normalize two union-compatible relations against each other.

    This is the preparation step of the set-operator reduction rules:
    ``r −T s = N_A(r; s) − N_A(s; r)`` and analogously for union and
    intersection, where ``A`` is the full attribute list.
    """
    if attributes is None:
        if not left.schema.union_compatible_with(right.schema):
            raise SchemaError(
                "set operations require union compatible schemas; got "
                f"{left.schema!r} and {right.schema!r}"
            )
        attributes = left.schema.attribute_names
    return (
        normalize(left, right, attributes),
        normalize(right, left, attributes),
    )


def self_normalize(
    relation: TemporalRelation, attributes: Sequence[str] = ()
) -> TemporalRelation:
    """``N_B(r; r)`` — the form used by projection and aggregation."""
    return normalize(relation, relation, attributes)


def split_points(
    reference: TemporalRelation, attributes: Tuple[str, ...]
) -> Dict[Hashable, List[int]]:
    """Sorted, de-duplicated start/end points of the reference, per B-key.

    This corresponds to the kernel's join against
    ``π_{B,Ts}(s) ∪ π_{B,Te}(s)`` (Sec. 6.3): only the endpoints matter for
    splitting, and imposing a total order on them gives the sweep constant
    memory per group.

    The result is cached on ``reference`` (see
    :meth:`~repro.relation.relation.TemporalRelation.derived`), so repeated
    sweep normalizations against the same reference — the hot pattern of
    Fig. 14's attribute sweep and of any shared dimension relation — collect
    and sort the endpoints once instead of once per call.  Mutating the reference invalidates the
    cache.  The key of a tuple is ``values_of(attributes)`` (``()`` for
    ``N_{}``).
    """

    def build() -> Dict[Hashable, List[int]]:
        collected: Dict[Hashable, Set[int]] = defaultdict(set)
        key_of = reference.schema.key_getter(attributes)
        for s in reference:
            if s.interval.is_empty():
                continue
            key = key_of(s.values)
            collected[key].add(s.start)
            collected[key].add(s.end)
        return {key: sorted(points) for key, points in collected.items()}

    return reference.derived(("split_points", attributes), build)


# -- internals ----------------------------------------------------------------


def _split_interval(interval: Interval, sorted_points: Sequence[int]) -> List[Interval]:
    """Split ``interval`` at the given (sorted) points that fall inside it."""
    if interval.is_empty():
        return []
    interior = [p for p in sorted_points if interval.start < p < interval.end]
    if not interior:
        return [interval]
    bounds = [interval.start] + interior + [interval.end]
    return [Interval(a, b) for a, b in zip(bounds, bounds[1:])]
