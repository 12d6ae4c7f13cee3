"""The ExecAdjustment plane sweep (Fig. 8–11), the planner and the kernel algebra."""

import math
import re

import pytest

from repro import predicates
from repro.core.alignment import align_relation
from repro.core.normalization import normalize
from repro.engine.database import Database
from repro.engine.executor import (
    AdjustmentNode,
    HashJoinNode,
    MergeJoinNode,
    NestedLoopJoinNode,
    ValuesNode,
)
from repro.engine.expressions import Column, Comparison
from repro.engine.optimizer import cost
from repro.engine.optimizer.settings import Settings
from repro.engine.plan import Align, Join, Scan
from repro.engine.temporal_plans import KernelTemporalAlgebra, normalize_plan, scan
from repro.relation.errors import PlanError
from repro.relation.tuple import NULL
from repro.workloads.hotel import hotel_prices, hotel_reservations


class TestAdjustmentNode:
    """The plane sweep of Fig. 10 on the paper's example of Fig. 8/9/11."""

    def _paper_input(self):
        # Group g1 of Fig. 9: r1 = (a, β, [1,7)) joined with s1 ([2,5)) and s2 ([3,4)).
        # Rows: r columns (A, B, ts, te) + P1 + P2, already partitioned and sorted.
        rows = [
            ("a", "β", 1, 7, 2, 5),   # x1 = r1 ∘ s1
            ("a", "β", 1, 7, 3, 4),   # x2 = r1 ∘ s2
            ("b", "β", 3, 9, 3, 4),   # x3 = r2 ∘ s2
            ("b", "β", 3, 9, 7, 9),   # x4 = r2 ∘ s3
            ("c", "γ", 8, 10, NULL, NULL),  # x5 = r3 ∘ ω (dangling)
        ]
        return ValuesNode(["A", "B", "ts", "te", "__p1", "__p2"], rows)

    def test_alignment_sweep_matches_figure_11(self):
        node = AdjustmentNode(self._paper_input(), group_width=4, ts_index=2, te_index=3,
                              isalign=True)
        result = node.execute()
        # Group g1 produces r̃1..r̃4 of Fig. 11: [1,2), [2,5), [3,4), [5,7).
        assert result[:4] == [
            ("a", "β", 1, 2), ("a", "β", 2, 5), ("a", "β", 3, 4), ("a", "β", 5, 7)
        ]
        # Group g2: intersections [3,4), [7,9) plus gaps [4,7) ... sweep order.
        assert ("b", "β", 3, 4) in result and ("b", "β", 7, 9) in result
        assert ("b", "β", 4, 7) in result
        # Dangling r3 keeps its full interval.
        assert result[-1] == ("c", "γ", 8, 10)

    def test_alignment_deduplicates_equal_intersections(self):
        rows = [("a", 1, 7, 2, 5), ("a", 1, 7, 2, 5)]
        node = AdjustmentNode(ValuesNode(["A", "ts", "te", "__p1", "__p2"], rows),
                              group_width=3, ts_index=1, te_index=2, isalign=True)
        assert node.execute() == [("a", 1, 2), ("a", 2, 5), ("a", 5, 7)]

    def test_normalization_sweep(self):
        rows = [("a", 1, 7, 3), ("a", 1, 7, 5), ("b", 0, 4, NULL)]
        node = AdjustmentNode(ValuesNode(["A", "ts", "te", "__p1"], rows),
                              group_width=3, ts_index=1, te_index=2, isalign=False)
        assert node.execute() == [("a", 1, 3), ("a", 3, 5), ("a", 5, 7), ("b", 0, 4)]

    def test_duplicate_split_points_skipped(self):
        rows = [("a", 1, 7, 3), ("a", 1, 7, 3)]
        node = AdjustmentNode(ValuesNode(["A", "ts", "te", "__p1"], rows),
                              group_width=3, ts_index=1, te_index=2, isalign=False)
        assert node.execute() == [("a", 1, 3), ("a", 3, 7)]

    def test_input_width_validated(self):
        with pytest.raises(PlanError):
            AdjustmentNode(ValuesNode(["A", "ts", "te"], []), group_width=3,
                           ts_index=1, te_index=2, isalign=True)
        with pytest.raises(PlanError):
            AdjustmentNode(ValuesNode(["A", "ts", "te", "p1"], []), group_width=3,
                           ts_index=5, te_index=2, isalign=False)


class TestPlanner:
    def _database(self):
        database = Database()
        database.register_relation("r", hotel_reservations())
        database.register_relation("p", hotel_prices())
        return database

    def test_scan_and_filter_plan(self):
        database = self._database()
        plan = Scan("r", database.get_table("r").columns, alias="r")
        table = database.execute(plan)
        assert len(table) == 3
        assert table.columns == ("r.n", "r.ts", "r.te")

    @pytest.mark.parametrize("size", [1, 300])
    def test_join_strategy_selection_by_settings(self, size):
        # The join rule reads no estimate: a 1-row keyed input plans the same
        # operator under each setting as a 300-row one.
        from repro.workloads.incumben import IncumbenConfig, generate_incumben

        database = self._database()
        incumben = generate_incumben(config=IncumbenConfig(size=300, seed=3)).limit(size)
        database.register_relation("big", incumben)
        left = Scan("big", database.get_table("big").columns, alias="a")
        right = Scan("big", database.get_table("big").columns, alias="b")
        join = Join(left, right, kind="inner",
                    condition=Comparison("=", Column("a.ssn"), Column("b.ssn")))
        expected = [
            (Settings(), HashJoinNode),
            (Settings(enable_mergejoin=False), HashJoinNode),
            (Settings(enable_hashjoin=False), MergeJoinNode),
            (Settings(enable_hashjoin=False, enable_mergejoin=False), NestedLoopJoinNode),
        ]
        for settings, operator in expected:
            assert type(database.plan(join, settings)) is operator, settings

    #: Each setting of the join switches and the operator the rule picks
    #: for a keyed join under it.
    KEYED_RULE = [
        (Settings(), HashJoinNode),
        (Settings(enable_mergejoin=False), HashJoinNode),
        (Settings(enable_hashjoin=False), MergeJoinNode),
        (Settings(enable_hashjoin=False, enable_mergejoin=False), NestedLoopJoinNode),
    ]

    @pytest.mark.parametrize("kind", ["inner", "left", "right", "full", "semi", "anti"])
    def test_join_rule_holds_for_every_join_kind(self, kind):
        database = self._database()
        left = Scan("r", database.get_table("r").columns, alias="a")
        right = Scan("r", database.get_table("r").columns, alias="b")
        join = Join(left, right, kind=kind,
                    condition=Comparison("=", Column("a.n"), Column("b.n")))
        results = []
        for settings, operator in self.KEYED_RULE:
            physical = database.plan(join, settings)
            assert type(physical) is operator, settings
            results.append(sorted(physical.execute(), key=repr))
        assert all(result == results[0] for result in results)

    @pytest.mark.parametrize(
        "settings", [settings for settings, _ in KEYED_RULE],
        ids=["default", "no-merge", "no-hash", "no-hash-no-merge"],
    )
    def test_unkeyed_join_is_a_nested_loop_under_every_setting(self, settings):
        database = self._database()
        left = Scan("r", database.get_table("r").columns, alias="a")
        right = Scan("r", database.get_table("r").columns, alias="b")
        join = Join(left, right, kind="inner",
                    condition=Comparison("<", Column("a.ts"), Column("b.ts")))
        assert type(database.plan(join, settings)) is NestedLoopJoinNode

    def test_planning_an_align_is_cache_neutral(self):
        # Planning reads no relation: the columnar frame cached on an
        # ALIGN argument is neither rebuilt nor dropped by planning.
        from repro.columnar.encoding import encode_relation
        from repro.engine.temporal_plans import align_plan
        from repro.workloads.synthetic import SyntheticConfig, generate_random

        database = Database()
        left, right = generate_random(config=SyntheticConfig(size=80, categories=8, seed=21))
        database.register_relation("l", left)
        database.register_relation("r", right)
        plan = align_plan(
            scan(database, "l", "l"),
            scan(database, "r", "r"),
            Comparison("=", Column("l.cat"), Column("r.cat")),
        )
        frame = encode_relation(left, ("cat",))
        database.plan(plan)
        database.plan(plan, Settings(enable_columnar=False))
        assert encode_relation(left, ("cat",)).starts is frame.starts

    def test_all_strategies_produce_same_join_result(self):
        database = self._database()
        left = Scan("r", database.get_table("r").columns, alias="a")
        right = Scan("r", database.get_table("r").columns, alias="b")
        join = Join(left, right, kind="inner",
                    condition=Comparison("=", Column("a.n"), Column("b.n")))
        results = []
        for settings in (Settings(), Settings(enable_mergejoin=False),
                         Settings(enable_mergejoin=False, enable_hashjoin=False)):
            results.append(set(database.execute(join, settings).rows))
        assert results[0] == results[1] == results[2]

    def test_normalize_plan_group_join_follows_settings(self):
        # The Fig. 12(b) row pipeline shows its group-construction join.
        database = self._database()
        database.register_relation("inc", hotel_reservations())
        plan = normalize_plan(scan(database, "inc", "x"), scan(database, "inc", "y"), ["n"])
        with_hash = database.plan(
            plan, Settings(enable_columnar=False, enable_mergejoin=False)
        ).explain()
        assert "HashJoin" in with_hash
        nl_only = database.plan(plan, Settings(enable_columnar=False, enable_mergejoin=False,
                                               enable_hashjoin=False)).explain()
        assert "NestedLoopJoin" in nl_only

    def test_explain_contains_adjustment_node(self):
        database = self._database()
        plan = Align(Scan("r", database.get_table("r").columns, alias="a"),
                     Scan("p", database.get_table("p").columns, alias="b"), None)
        assert "Adjustment(align)" in database.explain(plan, Settings(enable_columnar=False))

    def test_unknown_table(self):
        database = Database()
        from repro.relation.errors import SchemaError

        with pytest.raises(SchemaError):
            database.get_table("missing")


class TestEstimates:
    """Estimates annotate EXPLAIN and choose nothing: every node carries a
    finite ``(rows=… cost=…)``, the two temporal nodes follow Sec. 6.2/6.3,
    and a join's estimate keeps the rows its kind preserves."""

    #: One EXPLAIN line: a ``describe()`` label, then the estimates.
    LINE = re.compile(r"^ *\S.*  \(rows=\d+ cost=\d+\.\d\d\)$")

    ROW = Settings(enable_columnar=False)

    def _database(self):
        database = Database()
        database.register_relation("r", hotel_reservations())
        database.register_relation("p", hotel_prices())
        return database

    def _nodes(self, node):
        yield node
        for child in node.children:
            yield from self._nodes(child)

    @pytest.mark.parametrize(
        "settings",
        [
            Settings(),
            ROW,
            ROW.copy(enable_hashjoin=False),
            ROW.copy(enable_hashjoin=False, enable_mergejoin=False),
        ],
        ids=["columnar", "hash", "merge", "nestloop"],
    )
    def test_every_node_is_annotated(self, settings):
        database = self._database()
        plan = normalize_plan(scan(database, "r", "x"), scan(database, "r", "y"), ["n"])
        physical = database.plan(plan, settings)
        for node in self._nodes(physical):
            assert math.isfinite(node.estimated_rows) and node.estimated_rows >= 1
            assert math.isfinite(node.estimated_cost) and node.estimated_cost > 0
        lines = physical.explain().splitlines()
        assert len(lines) == len(list(self._nodes(physical)))
        assert all(self.LINE.match(line) for line in lines), lines

    @pytest.mark.parametrize("isalign, factor", [(True, 3), (False, 2)],
                             ids=["align", "normalize"])
    def test_adjustment_rows_follow_the_paper(self, isalign, factor):
        # Sec. 6.2: alignment emits up to 3 rows per input row; Sec. 6.3:
        # normalization up to 2 per split point.
        database = self._database()
        if isalign:
            plan = Align(Scan("r", database.get_table("r").columns, alias="a"),
                         Scan("p", database.get_table("p").columns, alias="b"), None)
        else:
            plan = normalize_plan(scan(database, "r", "x"), scan(database, "r", "y"), ["n"])
        adjustment = database.plan(plan, self.ROW)
        assert isinstance(adjustment, AdjustmentNode)
        (sorted_input,) = adjustment.children
        assert adjustment.estimated_rows == factor * sorted_input.estimated_rows
        columnar = database.plan(plan)
        assert columnar.estimated_rows == adjustment.estimated_rows

    @pytest.mark.parametrize(
        "kind, rows",
        [("inner", 12), ("left", 40), ("semi", 40), ("anti", 40), ("right", 60), ("full", 60)],
    )
    def test_join_rows_keep_the_preserved_side(self, kind, rows):
        # A keyed 40 × 60 join matches 40 · 60 · 0.005 = 12 rows; an outer,
        # semi or anti kind emits at least every row of the side it keeps.
        estimate = cost.join_cost(cost.scan_cost(40), cost.scan_cost(60), True, kind)
        assert estimate.rows == pytest.approx(rows)

    def test_keyed_join_compares_linearly_unkeyed_quadratically(self):
        def compared(n, keyed):
            left, right = cost.scan_cost(n), cost.scan_cost(n)
            estimate = cost.join_cost(left, right, keyed, "inner")
            work = estimate.cost - left.cost - right.cost - cost.CPU_TUPLE_COST * estimate.rows
            return work / cost.CPU_OPERATOR_COST

        assert compared(200, True) == pytest.approx(2 * compared(100, True))
        assert compared(200, False) == pytest.approx(4 * compared(100, False))


class TestKernelTemporalAlgebra:
    """Engine-backed reduction rules agree with the native implementation."""

    def test_align_matches_native(self, small_pair):
        left, right = small_pair
        theta_native = predicates.attr_eq("cat")
        kernel = KernelTemporalAlgebra()
        engine_result = kernel.align(left, right, Comparison("=", Column("__l.cat"), Column("__r.cat")))
        native_result = align_relation(left, right, theta_native)
        stripped = engine_result.rename(
            {c: f"c{i}" for i, c in enumerate(engine_result.schema.attribute_names)}
        )
        native_renamed = native_result.rename(
            {c: f"c{i}" for i, c in enumerate(native_result.schema.attribute_names)}
        )
        assert stripped.as_set() == native_renamed.as_set()

    def test_normalize_matches_native(self, small_pair):
        left, right = small_pair
        kernel = KernelTemporalAlgebra()
        engine_result = kernel.normalize(left, right, ["cat"])
        native_result = normalize(left, right, ["cat"])
        assert {(t.values, t.interval) for t in engine_result} == {
            (t.values, t.interval) for t in native_result
        }

    def test_join_matches_native(self, small_pair):
        from repro.core import reduction

        left, right = small_pair
        kernel = KernelTemporalAlgebra()
        engine_result = kernel.join(left, right, Comparison("=", Column("__l.cat"), Column("__r.cat")))
        native_result = reduction.temporal_join(left, right, predicates.attr_eq("cat"))
        assert {(t.values, t.interval) for t in engine_result} == {
            (t.values, t.interval) for t in native_result
        }

    def test_left_outer_join_matches_native(self, small_pair):
        from repro.core import reduction

        left, right = small_pair
        kernel = KernelTemporalAlgebra()
        engine_result = kernel.left_outer_join(
            left, right, Comparison("=", Column("__l.cat"), Column("__r.cat"))
        )
        native_result = reduction.temporal_left_outer_join(left, right, predicates.attr_eq("cat"))
        assert {(t.values, t.interval) for t in engine_result} == {
            (t.values, t.interval) for t in native_result
        }

    def test_aggregate_and_projection(self, small_pair):
        from repro.engine.plan import AggregateCall

        left, _ = small_pair
        kernel = KernelTemporalAlgebra()
        aggregated = kernel.aggregate(left, ["cat"], [AggregateCall("COUNT", None, "cnt")])
        assert len(aggregated) > 0
        projected = kernel.projection(left, ["cat"])
        from repro.core import reduction

        native = reduction.temporal_projection(left, ["cat"])
        assert {(t.values_of(["cat"]), t.interval) for t in projected} == {
            (t.values, t.interval) for t in native
        }

    def test_set_operations(self, small_pair):
        from repro.core import reduction

        left, right = small_pair
        kernel = KernelTemporalAlgebra()
        engine_union = kernel.union(left, right)
        native_union = reduction.temporal_union(left, right)
        assert {(t.values, t.interval) for t in engine_union} == {
            (t.values, t.interval) for t in native_union
        }
        engine_diff = kernel.difference(left, right)
        native_diff = reduction.temporal_difference(left, right)
        assert {(t.values, t.interval) for t in engine_diff} == {
            (t.values, t.interval) for t in native_diff
        }
