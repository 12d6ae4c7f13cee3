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

Two strategies compute it: the columnar kernels of :mod:`repro.columnar`
(the default) and, as the independent oracle, the overlap sweep of
:mod:`repro.core.sweep` (the sort-merge strategy of the kernel
implementation).  An optional pair of equality keys restricts candidates
the same way an equi-θ lets the PostgreSQL optimizer pick a hash or merge
join.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from repro.columnar import kernels
from repro.core.normalization import adjust_columnar
from repro.core.primitives import align_tuple
from repro.core.sweep import ThetaPredicate, overlap_groups, value_key
from repro.relation.relation import TemporalRelation
from repro.relation.tuple import TemporalTuple


ALIGN_STRATEGIES = ("sweep", "columnar")


def align_relation(
    relation: TemporalRelation,
    reference: TemporalRelation,
    theta: Optional[ThetaPredicate] = None,
    equi_attributes: Optional[Sequence[str]] = None,
    reference_equi_attributes: Optional[Sequence[str]] = None,
    strategy: str = "columnar",
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
        ``"columnar"`` (default) encodes both relations into cached int64
        endpoint arrays with dictionary-encoded keys and runs the batch
        kernels of :mod:`repro.columnar` (NumPy when available, the
        pure-Python twins otherwise — results are identical); an opaque θ
        filters the kernel's candidate pairs, called once per pair.
        ``"sweep"`` builds the overlap groups with the event sweep of
        :mod:`repro.core.sweep` and aligns tuple by tuple: the oracle the
        kernels are tested against.

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

    # An empty key list restricts nothing: treat it exactly like "no key".
    keys: Sequence[str] = equi_attributes or ()
    reference_keys: Sequence[str] = ()
    if keys:
        reference_keys = keys if reference_equi_attributes is None else reference_equi_attributes

    if strategy == "columnar":
        return _align_columnar(relation, reference, theta, keys, reference_keys)

    groups = overlap_groups(
        relation.tuples(),
        reference.tuples(),
        theta=theta,
        left_key=value_key(keys) if keys else None,
        right_key=value_key(reference_keys) if keys else None,
    )

    result = TemporalRelation(relation.schema)
    for r, group in zip(relation, groups):
        for piece in align_tuple(r.interval, [g.interval for g in group]):
            result.add(r.with_interval(piece))
    return result


def _align_columnar(
    relation: TemporalRelation,
    reference: TemporalRelation,
    theta: Optional[ThetaPredicate],
    equi_attributes: Sequence[str],
    reference_equi_attributes: Sequence[str],
) -> TemporalRelation:
    """``align_relation`` through :func:`kernels.align_pieces`; an opaque θ
    keeps the candidate pairs it accepts (its ``pair_filter``)."""
    pair_filter: Optional[kernels.PairFilter] = None
    if theta is not None:
        accepts = theta
        left_tuples, right_tuples = relation.tuples(), reference.tuples()

        def keep(li: Any, ri: Any) -> Tuple[Any, Any]:
            return kernels.keep_pairs(
                li, ri, lambda i, j: accepts(left_tuples[i], right_tuples[j])
            )

        pair_filter = keep
    return adjust_columnar(
        relation,
        reference,
        equi_attributes,
        reference_equi_attributes,
        kernels.align_pieces,
        pair_filter=pair_filter,
    )


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
