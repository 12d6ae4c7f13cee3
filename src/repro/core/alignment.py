"""Temporal alignment ``r Φθ s`` (Def. 11).

Alignment adjusts the timestamps of ``r`` with respect to ``s`` and a θ
condition over nontemporal attributes: every ``r``-tuple is replaced by

* one tuple per matching, overlapping ``s``-tuple, timestamped with the
  intersection of the two intervals, and
* one tuple per maximal sub-interval of the ``r``-tuple's timestamp that is
  not covered by any matching ``s``-tuple.

After aligning both arguments against each other, matching tuples have equal
timestamps (Proposition 3), so the tuple-based operators
{σ, ×, ⋈, ⟕, ⟖, ⟗, ▷} reduce to their nontemporal counterparts with an
additional equality predicate on the adjusted timestamps.

The group construction uses the overlap sweep of :mod:`repro.core.sweep`
(matching the sort-merge strategy of the kernel implementation); an optional
pair of equality keys restricts candidates the same way an equi-θ lets the
PostgreSQL optimizer pick a hash or merge join.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.columnar import dispatch as columnar_dispatch
from repro.core.primitives import align_tuple
from repro.core.sweep import KeyFunction, ThetaPredicate, overlap_groups, value_key
from repro.relation.relation import TemporalRelation
from repro.relation.tuple import TemporalTuple
from repro.temporal.interval import Interval


ALIGN_STRATEGIES = ("auto", "sweep", "index", "columnar")


def align_relation(
    relation: TemporalRelation,
    reference: TemporalRelation,
    theta: Optional[ThetaPredicate] = None,
    equi_attributes: Optional[Sequence[str]] = None,
    reference_equi_attributes: Optional[Sequence[str]] = None,
    strategy: str = "auto",
) -> TemporalRelation:
    """Compute the temporal alignment ``relation Φθ reference``.

    Parameters
    ----------
    relation, reference:
        The argument relations; the result keeps the schema of ``relation``.
    theta:
        Predicate over one tuple of each relation (nontemporal attributes
        only — reference the propagated ``U`` attribute for conditions on the
        original timestamps).  ``None`` means ``true``.
    equi_attributes, reference_equi_attributes:
        Optional equality key: when given, only pairs whose key values match
        are considered (candidates are hash-partitioned before the sweep).
        This is the analogue of handing an equi-join θ to the optimizer.
    strategy:
        How the overlap groups are built.  ``"sweep"`` re-runs the event
        sweep over both inputs (right for one-shot calls); ``"index"`` probes
        the reference's cached
        :class:`~repro.temporal.interval_index.IntervalIndex`, building it on
        first use — the right choice when many relations are aligned against
        one shared reference; ``"auto"`` (default) probes the index when the
        reference already has one cached and sweeps otherwise, so repeated
        callers get the
        amortised path without a flag; ``"columnar"`` encodes both relations
        into int64 endpoint arrays with dictionary-encoded keys and runs the
        vectorized batch kernels of :mod:`repro.columnar` (NumPy when
        available, a pure-Python twin otherwise — results are identical).
        ``"auto"`` additionally picks the columnar path cost-based
        (:func:`repro.columnar.dispatch.auto_columnar`): NumPy importable, θ
        absent or an equality key, and the combined input above the
        crossover.  An opaque θ never auto-dispatches — with an explicit
        ``"columnar"`` request the overlap join and the piece generation
        still run vectorized, with θ called once per candidate pair between
        them.

    Notes
    -----
    Only ``s``-tuples whose interval overlaps the ``r``-tuple can contribute
    to the adjusted timestamps (the intersection would otherwise be empty and
    non-overlapping tuples create no gaps), so the group construction may
    safely require overlap — exactly what the kernel join in Fig. 8 does.
    All strategies produce the same relation.
    """
    if strategy not in ALIGN_STRATEGIES:
        raise ValueError(f"unknown alignment strategy {strategy!r}; use one of {ALIGN_STRATEGIES}")

    # An empty key list restricts nothing — treat it exactly like "no key",
    # so every strategy (notably the indexed paths, whose plain-vs-keyed
    # index flavour follows the attribute list) agrees on the semantics.
    if not equi_attributes:
        equi_attributes = None
        reference_equi_attributes = None

    # The reference side's key attributes drive both the sweep's hash
    # partition and the keyed index, so compute them exactly once.
    left_key: Optional[KeyFunction] = None
    right_key: Optional[KeyFunction] = None
    index_attrs: Sequence[str] = ()
    if equi_attributes is not None:
        index_attrs = (
            reference_equi_attributes if reference_equi_attributes is not None else equi_attributes
        )
        left_key = value_key(equi_attributes)
        right_key = value_key(index_attrs)

    if strategy == "columnar":
        return _align_columnar(relation, reference, theta, equi_attributes, index_attrs)
    if (
        strategy == "auto"
        and not reference.has_interval_index(index_attrs)
        and columnar_dispatch.auto_columnar(
            len(relation), len(reference), opaque_theta=theta is not None
        )
    ):
        return _align_columnar(relation, reference, theta, equi_attributes, index_attrs)

    index = None
    if strategy == "index" or (strategy == "auto" and reference.has_interval_index(index_attrs)):
        index = reference.interval_index(index_attrs)

    groups = overlap_groups(
        relation.tuples(),
        reference.tuples(),
        theta=theta,
        left_key=left_key,
        right_key=right_key,
        index=index,
    )

    result = TemporalRelation(relation.schema)
    for r, group in zip(relation, groups):
        for piece in align_tuple(r.interval, [g.interval for g in group]):
            result.add(r.with_interval(piece))
    return result


# -- the columnar strategy ----------------------------------------------------


def _align_columnar(
    relation: TemporalRelation,
    reference: TemporalRelation,
    theta: Optional[ThetaPredicate],
    equi_attributes: Optional[Sequence[str]],
    reference_equi_attributes: Sequence[str],
) -> TemporalRelation:
    """``align_relation`` over the columnar encoding (see :mod:`repro.columnar`).

    Both relations are encoded once (cached on ``derived``, invalidated by
    the ``_after_mutation`` funnel) and the whole alignment — overlap join,
    intersection/gap generation, deduplication — runs as array kernels;
    tuples materialise only here, at the boundary.  An opaque θ cannot be
    vectorized: it is called once per candidate pair between the kernel's
    two steps (:func:`~repro.columnar.kernels.overlap_pairs`, then
    :func:`~repro.columnar.kernels.pieces_from_pairs`).
    """
    from repro.columnar import encoding, kernels

    left_frame = encoding.encode_relation(relation, equi_attributes or ())
    right_frame = encoding.encode_relation(reference, reference_equi_attributes)
    left_codes = encoding.remap_codes(left_frame, right_frame)
    left_tuples = relation.tuples()
    arrays = (
        left_frame.starts,
        left_frame.ends,
        left_codes,
        right_frame.starts,
        right_frame.ends,
        right_frame.codes,
    )

    if theta is None:
        rows, starts, ends = kernels.align_pieces(*arrays)
    else:
        li, ri = kernels.overlap_pairs(*arrays)
        right_tuples = reference.tuples()
        kept = [
            (i, j) for i, j in zip(li, ri) if theta(left_tuples[i], right_tuples[j])
        ]
        rows, starts, ends = kernels.pieces_from_pairs(
            left_frame.starts,
            left_frame.ends,
            right_frame.starts,
            right_frame.ends,
            [i for i, _ in kept],
            [j for _, j in kept],
        )
    result = TemporalRelation(relation.schema)
    add = result.add
    for i, start, end in zip(rows, starts, ends):
        add(left_tuples[i].with_interval(Interval(start, end)))
    return result


def align_pair(
    left: TemporalRelation,
    right: TemporalRelation,
    theta: Optional[ThetaPredicate] = None,
    left_equi_attributes: Optional[Sequence[str]] = None,
    right_equi_attributes: Optional[Sequence[str]] = None,
) -> Tuple[TemporalRelation, TemporalRelation]:
    """Align two relations against each other (both directions).

    Returns ``(left Φθ right, right Φθ' left)`` where ``θ'`` swaps the
    argument order of ``theta``.  This is the preparation step shared by all
    tuple-based reduction rules.
    """
    if theta is None:
        swapped: Optional[ThetaPredicate] = None
    else:
        def swapped(s: TemporalTuple, r: TemporalTuple) -> bool:
            return theta(r, s)

    aligned_left = align_relation(
        left,
        right,
        theta,
        equi_attributes=left_equi_attributes,
        reference_equi_attributes=right_equi_attributes,
    )
    aligned_right = align_relation(
        right,
        left,
        swapped,
        equi_attributes=right_equi_attributes,
        reference_equi_attributes=left_equi_attributes,
    )
    return aligned_left, aligned_right


def alignment_cardinality_bound(n: int, m: int) -> int:
    """The upper bound of Lemma 1: ``|r Φθ s| ≤ 2·n·m + n``."""
    return 2 * n * m + n
