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
adjusted tuples.  The native version here partitions by ``B`` with a hash
table and sweeps per group — equivalent to the hash-join strategy the
PostgreSQL optimizer picks for the group-construction join.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.columnar import dispatch as columnar_dispatch
from repro.relation.errors import SchemaError
from repro.relation.relation import TemporalRelation
from repro.temporal.interval import Interval


NORMALIZE_STRATEGIES = ("auto", "sweep", "columnar")


def normalize(
    relation: TemporalRelation,
    reference: TemporalRelation,
    attributes: Sequence[str] = (),
    strategy: str = "auto",
) -> TemporalRelation:
    """Compute ``N_B(relation; reference)`` for ``B = attributes``.

    ``attributes`` must be nontemporal attributes common to both schemas;
    the empty sequence (``N_{}``) splits against *all* reference tuples,
    which is the most expensive case evaluated in Fig. 14.

    ``strategy`` selects how the per-group sweeps run: ``"sweep"`` partitions
    by ``B`` with a hash table and sweeps the groups serially; ``"columnar"``
    encodes the reference endpoints and the ``B`` keys into arrays and
    generates the split pieces with the vectorized batch kernels of
    :mod:`repro.columnar` (pure-Python twin when NumPy is absent).
    ``"auto"`` picks the columnar path cost-based (NumPy importable and the
    combined input above the crossover of
    :func:`repro.columnar.dispatch.auto_columnar`) and sweeps otherwise.  All
    strategies produce the same relation.

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

    if strategy == "columnar" or (
        strategy == "auto"
        and columnar_dispatch.auto_columnar(len(relation), len(reference))
    ):
        return _normalize_columnar(relation, reference, attrs)

    split_points = _split_points_by_key(reference, attrs)

    result = TemporalRelation(relation.schema)
    for r in relation:
        key = r.values_of(attrs) if attrs else ()
        points = split_points.get(key, ())
        for piece in _split_interval(r.interval, points):
            result.add(r.with_interval(piece))
    return result


def _normalize_columnar(
    relation: TemporalRelation,
    reference: TemporalRelation,
    attrs: Tuple[str, ...],
) -> TemporalRelation:
    """``normalize`` over the columnar encoding (see :mod:`repro.columnar`).

    The reference's endpoint/key arrays are encoded once (cached on
    ``derived`` exactly like the row-mode split points) and every argument
    interval is split against them in one batched
    ``searchsorted``/``repeat`` pass; tuples materialise only here at the
    boundary.
    """
    from repro.columnar import encoding, kernels

    left_frame = encoding.encode_relation(relation, attrs)
    right_frame = encoding.encode_relation(reference, attrs)
    left_codes = encoding.remap_codes(left_frame, right_frame)
    left_tuples = relation.tuples()

    rows, starts, ends = kernels.normalize_pieces_from_intervals(
        left_frame.starts,
        left_frame.ends,
        left_codes,
        right_frame.starts,
        right_frame.ends,
        right_frame.codes,
    )
    result = TemporalRelation(relation.schema)
    add = result.add
    for i, start, end in zip(rows, starts, ends):
        add(left_tuples[i].with_interval(Interval(start, end)))
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


# -- internals ----------------------------------------------------------------


def _split_points_by_key(
    reference: TemporalRelation, attributes: Tuple[str, ...]
) -> Dict[Hashable, List[int]]:
    """Sorted, de-duplicated start/end points of the reference, per B-key.

    This corresponds to the kernel's join against
    ``π_{B,Ts}(s) ∪ π_{B,Te}(s)`` (Sec. 6.3): only the endpoints matter for
    splitting, and imposing a total order on them gives the sweep constant
    memory per group.

    The result is cached on ``reference`` (see
    :meth:`~repro.relation.relation.TemporalRelation.derived`), so repeated
    normalizations against the same reference — the hot pattern of Fig. 14's
    attribute sweep and of any shared dimension relation — collect and sort
    the endpoints once instead of once per call.  Inserting into the
    reference invalidates the cache.
    """

    def build() -> Dict[Hashable, List[int]]:
        collected: Dict[Hashable, Set[int]] = defaultdict(set)
        for s in reference:
            if s.interval.is_empty():
                continue
            key = s.values_of(attributes) if attributes else ()
            collected[key].add(s.start)
            collected[key].add(s.end)
        return {key: sorted(points) for key, points in collected.items()}

    return reference.derived(("split_points", attributes), build)


def _split_interval(interval: Interval, sorted_points: Sequence[int]) -> List[Interval]:
    """Split ``interval`` at the given (sorted) points that fall inside it."""
    if interval.is_empty():
        return []
    interior = [p for p in sorted_points if interval.start < p < interval.end]
    if not interior:
        return [interval]
    bounds = [interval.start] + interior + [interval.end]
    return [Interval(a, b) for a, b in zip(bounds, bounds[1:])]


def normalization_output_size(
    relation: TemporalRelation,
    reference: TemporalRelation,
    attributes: Sequence[str] = (),
) -> int:
    """Cardinality of ``N_B(relation; reference)`` without materialising it.

    Used by benchmarks that only report output sizes (Fig. 13(b), 14(b)).
    """
    attrs = tuple(attributes)
    split_points = _split_points_by_key(reference, attrs)
    total = 0
    for r in relation:
        key = r.values_of(attrs) if attrs else ()
        points = split_points.get(key, ())
        interior = sum(1 for p in points if r.start < p < r.end)
        total += interior + 1 if not r.interval.is_empty() else 0
    return total
