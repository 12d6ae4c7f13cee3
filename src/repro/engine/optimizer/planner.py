"""The planner: logical plans → physical executor trees.

Every join (including the group-construction join hidden inside the
``Align``/``Normalize`` nodes) is planned by one rule: a hash join when the
condition has an equality key and hash joins are enabled, else a sort-merge
join when it has one and merge joins are enabled, else a nested loop.
Disabling strategies through
:class:`~repro.engine.optimizer.settings.Settings` therefore changes the plan
exactly like ``SET enable_hashjoin = false`` does in the paper's Fig. 13.
Estimates (:mod:`~repro.engine.optimizer.cost`) annotate every node for
EXPLAIN; no choice compares them.

The two temporal logical nodes become one ``ColumnarAdjustment`` node over
their arguments.  With ``enable_columnar`` off they expand into the plan
shape of Fig. 12(b):

    Adjustment ← Sort ← Project ← (left outer) Join ← arguments

with the join planned like any other join.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.engine import plan as logical
from repro.engine.executor import (
    AbsorbNode,
    AdjustmentNode,
    AdjustmentTask,
    ColumnarAdjustmentNode,
    DistinctNode,
    FilterNode,
    HashAggregateNode,
    HashJoinNode,
    LimitNode,
    MergeJoinNode,
    NestedLoopJoinNode,
    PhysicalNode,
    ProjectNode,
    ReferenceInput,
    RelabelNode,
    SeqScanNode,
    SetOpNode,
    SortNode,
    ValuesNode,
    ViewScanNode,
)
from repro.engine.expressions import (
    And,
    Comparison,
    Expression,
    FunctionCall,
    IndexColumn,
    conjunction,
    equijoin_keys,
    equijoin_residual,
    resolve_column,
)
from repro.engine.optimizer import cost
from repro.engine.optimizer.cost import Estimate
from repro.engine.optimizer.settings import Settings
from repro.obs import metrics as obs_metrics
from repro.relation.errors import PlanError

_STRATEGY_COUNTER = obs_metrics.counter("planner.strategy", label_name="strategy")


class Planner:
    """Translate logical plans into physical plans annotated with estimates."""

    def __init__(self, database, settings: Optional[Settings] = None):
        self.database = database
        self.settings = settings if settings is not None else database.settings

    # -- entry point -----------------------------------------------------------------

    def plan(self, node: logical.LogicalPlan) -> PhysicalNode:
        method = getattr(self, f"_plan_{type(node).__name__.lower()}", None)
        if method is None:
            raise PlanError(f"no planning rule for logical node {type(node).__name__}")
        return method(node)

    # -- leaves -----------------------------------------------------------------------

    def _plan_scan(self, node: logical.Scan) -> PhysicalNode:
        # A scan of a materialized view is always a ViewScan, the one way a
        # view is read: the view refreshes itself at execution time.
        views = self.database.views
        if node.table_name in views:
            view = views.get(node.table_name)
            physical: PhysicalNode = ViewScanNode(view, columns=node.columns)
            return self._estimated(physical, cost.view_scan_cost(view.estimated_rows()))
        source = self.database.scan_source(node.table_name)
        physical = SeqScanNode(node.table_name, source, node.alias)
        return self._estimated(physical, cost.scan_cost(len(source)))

    def _plan_values(self, node: logical.Values) -> PhysicalNode:
        physical = ValuesNode(node.columns, node.rows)
        return self._estimated(physical, Estimate(rows=len(node.rows), cost=0.0))

    # -- unary nodes --------------------------------------------------------------------

    def _plan_filter(self, node: logical.Filter) -> PhysicalNode:
        child = self.plan(node.child)
        physical = FilterNode(child, node.condition)
        estimate = cost.filter_cost(self._estimate(child), cost.DEFAULT_SELECTIVITY)
        return self._estimated(physical, estimate)

    def _plan_project(self, node: logical.Project) -> PhysicalNode:
        child = self.plan(node.child)
        physical = ProjectNode(child, node.expressions)
        estimate = cost.project_cost(self._estimate(child), len(node.expressions))
        return self._estimated(physical, estimate)

    def _plan_rename(self, node: logical.Rename) -> PhysicalNode:
        child = self.plan(node.child)
        physical = RelabelNode(child, node.columns)
        return self._estimated(physical, self._estimate(child))

    def _plan_sort(self, node: logical.Sort) -> PhysicalNode:
        child = self.plan(node.child)
        physical = SortNode(child, node.keys)
        return self._estimated(physical, cost.sort_cost(self._estimate(child)))

    def _plan_distinct(self, node: logical.Distinct) -> PhysicalNode:
        child = self.plan(node.child)
        physical = DistinctNode(child)
        return self._estimated(physical, cost.distinct_cost(self._estimate(child)))

    def _plan_limit(self, node: logical.Limit) -> PhysicalNode:
        child = self.plan(node.child)
        physical = LimitNode(child, node.count)
        return self._estimated(physical, cost.limit_cost(self._estimate(child), node.count))

    def _plan_aggregate(self, node: logical.Aggregate) -> PhysicalNode:
        child = self.plan(node.child)
        physical = HashAggregateNode(child, node.group_by, node.aggregates)
        estimate = cost.aggregate_cost(self._estimate(child))
        return self._estimated(physical, estimate)

    def _plan_absorb(self, node: logical.Absorb) -> PhysicalNode:
        child = self.plan(node.child)
        start_index = resolve_column(node.start, child.columns)
        end_index = resolve_column(node.end, child.columns)
        physical = AbsorbNode(child, start_index, end_index)
        return self._estimated(physical, cost.absorb_cost(self._estimate(child)))

    # -- binary nodes ---------------------------------------------------------------------

    def _plan_setop(self, node: logical.SetOp) -> PhysicalNode:
        left = self.plan(node.left)
        right = self.plan(node.right)
        physical = SetOpNode(node.kind, left, right)
        estimate = cost.setop_cost(self._estimate(left), self._estimate(right), node.kind)
        return self._estimated(physical, estimate)

    def _plan_join(self, node: logical.Join) -> PhysicalNode:
        left = self.plan(node.left)
        right = self.plan(node.right)
        kind = "inner" if node.kind == "cross" else node.kind
        keys = self._key_indexes(node.condition, left.columns, right.columns)
        return self._choose_join(left, right, kind, node.condition, keys)

    # -- temporal nodes ----------------------------------------------------------------------

    def _plan_align(self, node: logical.Align) -> PhysicalNode:
        substituted = self._view_substitute(node, kind="align")
        if substituted is not None:
            return substituted
        left = self.plan(node.left)
        right = self.plan(node.right)
        left_columns = left.columns
        right_columns = right.columns
        left_width = len(left_columns)

        left_ts = resolve_column(node.left_start, left_columns)
        left_te = resolve_column(node.left_end, left_columns)
        right_ts = left_width + resolve_column(node.right_start, right_columns)
        right_te = left_width + resolve_column(node.right_end, right_columns)

        # Group construction: left outer join on θ ∧ overlap (Fig. 8),
        # planned like any other join (Fig. 13).
        overlap = And(
            Comparison("<", IndexColumn(left_ts), IndexColumn(right_te)),
            Comparison("<", IndexColumn(right_ts), IndexColumn(left_te)),
        )
        condition = conjunction([node.condition, overlap])
        keys = self._key_indexes(node.condition, left_columns, right_columns)
        bounds = (
            left_ts,
            left_te,
            right_ts - left_width,
            right_te - left_width,
        )
        join = self._choose_join(left, right, "left", condition, keys)

        # Project to the r tuple plus the intersection bounds P1/P2.
        expressions: List[Tuple[Expression, str]] = [
            (IndexColumn(i), name) for i, name in enumerate(left_columns)
        ]
        expressions.append(
            (FunctionCall("GREATEST", [IndexColumn(left_ts), IndexColumn(right_ts)]), "__p1")
        )
        expressions.append(
            (FunctionCall("LEAST", [IndexColumn(left_te), IndexColumn(right_te)]), "__p2")
        )
        projected = ProjectNode(join, expressions)
        self._estimated(projected, cost.project_cost(self._estimate(join), len(expressions)))

        sorted_node = self._partition_sort(projected, left_width, extra=2)
        adjustment = AdjustmentNode(
            sorted_node,
            group_width=left_width,
            ts_index=left_ts,
            te_index=left_te,
            isalign=True,
            columns=left_columns,
        )
        self._estimated(
            adjustment, cost.alignment_cost(self._estimate(sorted_node), len(left_columns))
        )

        return self._dispatch_adjustment(
            left,
            right,
            keys=keys,
            bounds=bounds,
            group_width=left_width,
            ts_index=left_ts,
            te_index=left_te,
            isalign=True,
            serial=adjustment,
            # Key codes and the overlap kernel capture the equalities and the
            # overlap; the columnar node filters candidate pairs with the rest.
            residual=equijoin_residual(node.condition, left_columns, right_columns),
        )

    def _plan_normalize(self, node: logical.Normalize) -> PhysicalNode:
        substituted = self._view_substitute(node, kind="normalize")
        if substituted is not None:
            return substituted
        left = self.plan(node.left)
        right = self.plan(node.right)
        left_columns = left.columns
        right_columns = right.columns
        left_width = len(left_columns)

        left_ts = resolve_column(node.left_start, left_columns)
        left_te = resolve_column(node.left_end, left_columns)
        right_ts = resolve_column(node.right_start, right_columns)
        right_te = resolve_column(node.right_end, right_columns)

        # Split points of the reference: π_{B,Ts}(s) ∪ π_{B,Te}(s)  (Sec. 6.3).
        using_right_indexes = [resolve_column(rc, right_columns) for _, rc in node.using]
        key_names = [f"__k{i}" for i in range(len(node.using))]

        def split_projection(point_index: int) -> ProjectNode:
            expressions = [
                (IndexColumn(index), name) for index, name in zip(using_right_indexes, key_names)
            ]
            expressions.append((IndexColumn(point_index), "__p"))
            projection = ProjectNode(right, expressions)
            self._estimated(
                projection,
                cost.project_cost(self._estimate(right), len(expressions)),
            )
            return projection

        split_points = SetOpNode(
            "union_all", split_projection(right_ts), split_projection(right_te)
        )
        self._estimated(
            split_points,
            cost.setop_cost(self._estimate(right), self._estimate(right), "union_all"),
        )

        # Group construction join: equality on the USING attributes plus the
        # requirement that the split point falls strictly inside the interval.
        point_index = left_width + len(node.using)
        conjuncts: List[Expression] = []
        keys: List[Tuple[int, int]] = []
        for i, (left_name, _right_name) in enumerate(node.using):
            left_index = resolve_column(left_name, left_columns)
            conjuncts.append(
                Comparison("=", IndexColumn(left_index), IndexColumn(left_width + i))
            )
            keys.append((left_index, i))
        conjuncts.append(Comparison(">", IndexColumn(point_index), IndexColumn(left_ts)))
        conjuncts.append(Comparison("<", IndexColumn(point_index), IndexColumn(left_te)))
        condition = conjunction(conjuncts)

        join = self._choose_join(left, split_points, "left", condition, keys)

        expressions = [(IndexColumn(i), name) for i, name in enumerate(left_columns)]
        expressions.append((IndexColumn(point_index), "__p1"))
        projected = ProjectNode(join, expressions)
        self._estimated(projected, cost.project_cost(self._estimate(join), len(expressions)))

        sorted_node = self._partition_sort(projected, left_width, extra=1)
        adjustment = AdjustmentNode(
            sorted_node,
            group_width=left_width,
            ts_index=left_ts,
            te_index=left_te,
            isalign=False,
            columns=left_columns,
        )
        self._estimated(
            adjustment, cost.normalization_cost(self._estimate(sorted_node), len(left_columns))
        )

        return self._dispatch_adjustment(
            left,
            split_points,
            keys=keys,
            bounds=None,
            group_width=left_width,
            ts_index=left_ts,
            te_index=left_te,
            isalign=False,
            serial=adjustment,
            # The split points are a projection of ``right``: a columnar node
            # that can read ``right`` as a cached frame takes them from there.
            reference=ReferenceInput(right, tuple(using_right_indexes), right_ts, right_te),
        )

    # -- materialized view substitution ------------------------------------------------------

    def _view_substitute(
        self, node, kind: str
    ) -> Optional[PhysicalNode]:
        """Replace an Align/Normalize subtree by a matching materialized view.

        Matching is structural: both inputs must be base-table scans of
        registered relations, the boundary columns the engine defaults, and
        the view catalog must hold an incremental view whose fingerprint
        (tables + alias-normalized condition) equals the node's.  The view
        must still be backed by the *same* relation objects — re-registering
        a table under an old name orphans views built over the former
        relation, and those must not serve the query.
        """
        catalog = self.database.views
        if len(catalog) == 0:
            return None
        if not isinstance(node.left, logical.Scan) or not isinstance(node.right, logical.Scan):
            return None
        bounds = (node.left_start, node.left_end, node.right_start, node.right_end)
        if tuple(b.rsplit(".", 1)[-1] for b in bounds) != ("ts", "te", "ts", "te"):
            return None

        from repro.views.catalog import (
            align_fingerprint,
            condition_fingerprint,
            normalize_fingerprint,
        )

        left_table = node.left.table_name
        right_table = node.right.table_name
        if kind == "align":
            fingerprint = align_fingerprint(
                left_table,
                right_table,
                condition_fingerprint(node.condition, node.left.columns, node.right.columns),
            )
        else:
            pairs = [
                (lc.rsplit(".", 1)[-1], rc.rsplit(".", 1)[-1]) for lc, rc in node.using
            ]
            fingerprint = normalize_fingerprint(left_table, right_table, pairs)
        view = catalog.match(fingerprint)
        if view is None or view.kind != kind:
            return None
        if (
            self.database.relations.get(left_table) is not view.base
            or self.database.relations.get(right_table) is not view.reference
        ):
            return None
        physical = ViewScanNode(view, columns=node.left.columns)
        return self._estimated(physical, cost.view_scan_cost(view.estimated_rows()))

    # -- helpers ---------------------------------------------------------------------------

    def _partition_sort(self, child: PhysicalNode, group_width: int, extra: int) -> SortNode:
        """Sort by the partition key (all group columns) then the sweep columns."""
        keys = [(IndexColumn(i), True) for i in range(group_width + extra)]
        sorted_node = SortNode(child, keys)
        self._estimated(sorted_node, cost.sort_cost(self._estimate(child)))
        return sorted_node

    def _key_indexes(
        self,
        condition: Optional[Expression],
        left_columns: Sequence[str],
        right_columns: Sequence[str],
    ) -> List[Tuple[int, int]]:
        pairs = equijoin_keys(condition, left_columns, right_columns)
        indexes: List[Tuple[int, int]] = []
        for left_name, right_name in pairs:
            indexes.append(
                (resolve_column(left_name, left_columns), resolve_column(right_name, right_columns))
            )
        return indexes

    def _choose_join(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        kind: str,
        condition: Optional[Expression],
        keys: Sequence[Tuple[int, int]],
    ) -> PhysicalNode:
        """Plan a join: hash if keyed and enabled, else merge if keyed and
        enabled, else a nested loop.

        The chosen operator is visible in ``EXPLAIN`` output, mirroring how
        the paper's Fig. 13 experiment reads the strategy off the PostgreSQL
        plan.  The full condition is evaluated as a residual predicate by
        every operator, so correctness never depends on the choice.
        """
        settings = self.settings
        physical: PhysicalNode
        if keys and settings.enable_hashjoin:
            physical = HashJoinNode(left, right, kind, condition, list(keys))
        elif keys and settings.enable_mergejoin:
            physical = MergeJoinNode(left, right, kind, condition, list(keys))
        else:
            physical = NestedLoopJoinNode(left, right, kind, condition)
        estimate = cost.join_cost(self._estimate(left), self._estimate(right), bool(keys), kind)
        return self._estimated(physical, estimate)

    def _dispatch_adjustment(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        keys: Sequence[Tuple[int, int]],
        bounds: Optional[Tuple[int, int, int, int]],
        group_width: int,
        ts_index: int,
        te_index: int,
        isalign: bool,
        serial: PhysicalNode,
        residual: Optional[Expression] = None,
        reference: Optional[ReferenceInput] = None,
    ) -> PhysicalNode:
        """The physical plan of one adjustment.

        One ``ColumnarAdjustment`` node — at every input size, for any θ
        (``residual`` being what the batch evaluates per candidate pair),
        with or without NumPy (:func:`~repro.columnar.rows.kernel_mode`) —
        unless ``enable_columnar`` is off, which keeps the ``serial`` row
        pipeline of Fig. 12(b).  The node carries the row pipeline's
        estimate: its rows are the same, and no plan choice above it depends
        on its cost.
        """
        if not self.settings.enable_columnar:
            _STRATEGY_COUNTER.inc(label="row")
            return serial
        task = AdjustmentTask(
            left_columns=tuple(left.columns),
            right_columns=tuple(right.columns),
            key_pairs=tuple(keys),
            bounds=bounds,
            group_width=group_width,
            ts_index=ts_index,
            te_index=te_index,
            isalign=isalign,
            residual=residual,
        )
        _STRATEGY_COUNTER.inc(label="columnar")
        return self._estimated(
            ColumnarAdjustmentNode(left, right, task, reference), self._estimate(serial)
        )

    def _estimate(self, node: PhysicalNode) -> Estimate:
        return Estimate(rows=node.estimated_rows, cost=node.estimated_cost)

    def _estimated(self, node: PhysicalNode, estimate: Estimate) -> PhysicalNode:
        node.estimated_rows = estimate.rows
        node.estimated_cost = estimate.cost
        return node
