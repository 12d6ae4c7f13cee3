"""Reduction rules of Table 2 expressed as engine plans.

These builders are the engine-level counterpart of
:mod:`repro.core.reduction`: they assemble logical plans that adjust interval
timestamps with :class:`~repro.engine.plan.Align` / :class:`~repro.engine.plan.Normalize`
nodes and then apply the ordinary nontemporal operators, so every temporal
query runs through the planner and executor like any other query — the
kernel-integration claim of the paper.

:class:`KernelTemporalAlgebra` wraps a :class:`~repro.engine.database.Database`
and offers the same operator surface as the native
:class:`~repro.core.algebra.TemporalAlgebra`; the test suite cross-checks the
two implementations against each other and against the snapshot reference.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.engine import plan as logical
from repro.engine.database import Database
from repro.engine.expressions import (
    And,
    Column,
    Comparison,
    Expression,
    FunctionCall,
    IndexColumn,
    conjunction,
)
from repro.engine.optimizer.settings import Settings
from repro.engine.plan import AggregateCall
from repro.engine.table import END_COLUMN, START_COLUMN
from repro.relation.errors import PlanError
from repro.relation.relation import TemporalRelation


def scan(database: Database, table_name: str, alias: Optional[str] = None) -> logical.Scan:
    """Logical scan of a registered table or view (columns from the catalog)."""
    return logical.Scan(table_name, database.columns_of(table_name), alias)


def align_plan(
    left: logical.LogicalPlan,
    right: logical.LogicalPlan,
    condition: Optional[Expression] = None,
) -> logical.Align:
    """``left Φθ right`` with the engine's default ``ts``/``te`` boundary columns."""
    return logical.Align(left, right, condition)


def normalize_plan(
    left: logical.LogicalPlan,
    right: logical.LogicalPlan,
    using: Sequence[str] = (),
) -> logical.Normalize:
    """``N_B(left; right)`` where ``B`` is the list of shared attribute names."""
    return logical.Normalize(left, right, [(name, name) for name in using])


def _timestamp_equality(left_width_columns: Sequence[str], right_columns: Sequence[str]) -> Expression:
    """``left.ts = right.ts AND left.te = right.te`` by position (unambiguous)."""
    left_ts = list(left_width_columns).index(_find(left_width_columns, START_COLUMN))
    left_te = list(left_width_columns).index(_find(left_width_columns, END_COLUMN))
    offset = len(left_width_columns)
    right_ts = offset + list(right_columns).index(_find(right_columns, START_COLUMN))
    right_te = offset + list(right_columns).index(_find(right_columns, END_COLUMN))
    return And(
        Comparison("=", IndexColumn(left_ts), IndexColumn(right_ts)),
        Comparison("=", IndexColumn(left_te), IndexColumn(right_te)),
    )


def _find(columns: Sequence[str], base: str) -> str:
    for column in columns:
        if column.rsplit(".", 1)[-1] == base:
            return column
    raise PlanError(f"no {base!r} column among {list(columns)}")


def temporal_join_plan(
    left: logical.LogicalPlan,
    right: logical.LogicalPlan,
    condition: Optional[Expression] = None,
    kind: str = "inner",
) -> logical.LogicalPlan:
    """``α((left Φθ right) ⋈_{θ ∧ T=} (right Φθ left))`` and its outer/anti variants.

    The right argument's (now redundant) boundary columns are projected away
    so the result carries a single interval, timestamped by the left
    argument's ``ts``/``te`` columns — matching the schema produced by the
    native reduction rules.
    """
    aligned_left = align_plan(left, right, condition)
    aligned_right = align_plan(right, left, condition)
    join_condition = conjunction(
        [condition, _timestamp_equality(aligned_left.columns, aligned_right.columns)]
    )
    joined = logical.Join(aligned_left, aligned_right, kind=kind, condition=join_condition)
    if kind == "anti":
        return joined

    left_ts = list(aligned_left.columns).index(_find(aligned_left.columns, START_COLUMN))
    left_te = list(aligned_left.columns).index(_find(aligned_left.columns, END_COLUMN))
    right_ts = len(aligned_left.columns) + list(aligned_right.columns).index(
        _find(aligned_right.columns, START_COLUMN)
    )
    right_te = len(aligned_left.columns) + list(aligned_right.columns).index(
        _find(aligned_right.columns, END_COLUMN)
    )
    expressions: List[Tuple[Expression, str]] = []
    for i, name in enumerate(joined.columns):
        if i in (right_ts, right_te):
            continue
        if i == left_ts:
            # Right/full outer joins pad the left side with ω; the result
            # interval then comes from the right argument.
            expressions.append(
                (FunctionCall("COALESCE", [IndexColumn(left_ts), IndexColumn(right_ts)]), name)
            )
        elif i == left_te:
            expressions.append(
                (FunctionCall("COALESCE", [IndexColumn(left_te), IndexColumn(right_te)]), name)
            )
        else:
            expressions.append((IndexColumn(i), name))
    projected = logical.Project(joined, expressions)
    return logical.Absorb(
        projected,
        start=_find(projected.columns, START_COLUMN),
        end=_find(projected.columns, END_COLUMN),
    )


def temporal_aggregate_plan(
    child: logical.LogicalPlan,
    group_by: Sequence[str],
    aggregates: Sequence[AggregateCall],
) -> logical.LogicalPlan:
    """``_{B,T}ϑ_F(N_B(r; r))`` as a plan: normalize, then group by ``B ∪ {ts, te}``."""
    normalized = normalize_plan(child, child, group_by)
    columns = normalized.columns
    group_expressions: List[Tuple[Expression, str]] = [
        (Column(_find(columns, name)), name) for name in group_by
    ]
    group_expressions.append((Column(_find(columns, START_COLUMN)), START_COLUMN))
    group_expressions.append((Column(_find(columns, END_COLUMN)), END_COLUMN))
    return logical.Aggregate(normalized, group_expressions, aggregates)


def temporal_projection_plan(
    child: logical.LogicalPlan, attributes: Sequence[str]
) -> logical.LogicalPlan:
    """``π_{B,T}(N_B(r; r))`` as a plan: normalize, project, eliminate duplicates."""
    normalized = normalize_plan(child, child, attributes)
    columns = normalized.columns
    expressions: List[Tuple[Expression, str]] = [
        (Column(_find(columns, name)), name) for name in attributes
    ]
    expressions.append((Column(_find(columns, START_COLUMN)), START_COLUMN))
    expressions.append((Column(_find(columns, END_COLUMN)), END_COLUMN))
    return logical.Distinct(logical.Project(normalized, expressions))


def temporal_set_op_plan(
    kind: str,
    left: logical.LogicalPlan,
    right: logical.LogicalPlan,
    attributes: Sequence[str],
) -> logical.LogicalPlan:
    """``N_A(r; s) ⟨op⟩ N_A(s; r)`` for union / except / intersect."""
    return logical.SetOp(
        kind,
        normalize_plan(left, right, attributes),
        normalize_plan(right, left, attributes),
    )


class KernelTemporalAlgebra:
    """Temporal algebra executed through the query engine.

    The operators mirror :class:`repro.core.algebra.TemporalAlgebra` but take
    and return :class:`~repro.relation.relation.TemporalRelation` values while
    *executing* through plans — alignment/normalization nodes, planner-chosen
    group-construction joins, plane-sweep executor.  ``settings`` selects the
    join strategies exactly like the paper's Fig. 13 experiment.
    """

    def __init__(self, database: Optional[Database] = None, settings: Optional[Settings] = None):
        self.database = database if database is not None else Database()
        if settings is not None:
            self.database.settings = settings

    # -- registration helpers ----------------------------------------------------------

    def _register(self, name: str, relation: TemporalRelation) -> logical.Scan:
        self.database.register_relation(name, relation)
        return scan(self.database, name, alias=name)

    def _run(self, plan: logical.LogicalPlan) -> TemporalRelation:
        table = self.database.execute(plan)
        return table.to_relation(
            start_column=_find(table.columns, START_COLUMN),
            end_column=_find(table.columns, END_COLUMN),
        )

    # -- primitives ----------------------------------------------------------------------

    def align(
        self,
        left: TemporalRelation,
        right: TemporalRelation,
        condition: Optional[Expression] = None,
    ) -> TemporalRelation:
        plan = align_plan(self._register("__l", left), self._register("__r", right), condition)
        return self._run(plan)

    def normalize(
        self,
        left: TemporalRelation,
        right: TemporalRelation,
        attributes: Sequence[str] = (),
    ) -> TemporalRelation:
        plan = normalize_plan(self._register("__l", left), self._register("__r", right), attributes)
        return self._run(plan)

    # -- operators --------------------------------------------------------------------------

    def join(self, left, right, condition=None, kind: str = "inner") -> TemporalRelation:
        plan = temporal_join_plan(
            self._register("__l", left), self._register("__r", right), condition, kind
        )
        return self._run(plan)

    def left_outer_join(self, left, right, condition=None) -> TemporalRelation:
        return self.join(left, right, condition, kind="left")

    def right_outer_join(self, left, right, condition=None) -> TemporalRelation:
        return self.join(left, right, condition, kind="right")

    def full_outer_join(self, left, right, condition=None) -> TemporalRelation:
        return self.join(left, right, condition, kind="full")

    def antijoin(self, left, right, condition=None) -> TemporalRelation:
        return self.join(left, right, condition, kind="anti")

    def aggregate(self, relation, group_by, aggregates) -> TemporalRelation:
        plan = temporal_aggregate_plan(self._register("__l", relation), group_by, aggregates)
        return self._run(plan)

    def projection(self, relation, attributes) -> TemporalRelation:
        plan = temporal_projection_plan(self._register("__l", relation), attributes)
        return self._run(plan)

    def union(self, left, right) -> TemporalRelation:
        return self._set_op("union", left, right)

    def difference(self, left, right) -> TemporalRelation:
        return self._set_op("except", left, right)

    def intersection(self, left, right) -> TemporalRelation:
        return self._set_op("intersect", left, right)

    def _set_op(self, kind: str, left, right) -> TemporalRelation:
        attributes = list(left.schema.attribute_names)
        plan = temporal_set_op_plan(
            kind, self._register("__l", left), self._register("__r", right), attributes
        )
        return self._run(plan)
