"""Physical operators: scans, filters, joins, aggregation, set ops, absorb, limit."""

import pytest

from repro.engine.executor import (
    AbsorbNode,
    DistinctNode,
    FilterNode,
    HashAggregateNode,
    HashJoinNode,
    LimitNode,
    MergeJoinNode,
    NestedLoopJoinNode,
    ProjectNode,
    RelabelNode,
    SeqScanNode,
    SetOpNode,
    SortNode,
    ValuesNode,
)
from repro.engine.expressions import Column, Comparison, Literal
from repro.engine.plan import AggregateCall
from repro.engine.table import Table
from repro.relation.errors import PlanError, QueryError
from repro.relation.tuple import NULL


def values(columns, rows):
    return ValuesNode(columns, rows)


LEFT = [("a", 1), ("b", 2), ("c", 3)]
RIGHT = [("a", 10), ("a", 11), ("d", 12)]


@pytest.fixture
def left():
    return values(["k", "x"], LEFT)


@pytest.fixture
def right():
    return values(["k2", "y"], RIGHT)


class TestBasicNodes:
    def test_seq_scan_with_alias(self):
        table = Table("t", ["a"], [(1,), (2,)])
        node = SeqScanNode("t", table, alias="r")
        assert node.columns == ["r.a"]
        assert node.execute() == [(1,), (2,)]

    def test_relabel(self, left):
        node = RelabelNode(left, ["a", "b"])
        assert node.columns == ["a", "b"]
        assert node.execute() == LEFT
        with pytest.raises(PlanError):
            RelabelNode(left, ["only_one"])

    def test_filter(self, left):
        node = FilterNode(left, Comparison(">", Column("x"), Literal(1)))
        assert node.execute() == [("b", 2), ("c", 3)]

    def test_project(self, left):
        node = ProjectNode(left, [(Column("x"), "doubled")])
        assert node.columns == ["doubled"]
        assert node.execute() == [(1,), (2,), (3,)]

    def test_sort_ascending_descending(self, left):
        ascending = SortNode(left, [(Column("x"), True)]).execute()
        descending = SortNode(left, [(Column("x"), False)]).execute()
        assert [r[1] for r in ascending] == [1, 2, 3]
        assert [r[1] for r in descending] == [3, 2, 1]

    def test_sort_nulls_first(self):
        node = SortNode(values(["x"], [(2,), (NULL,), (1,)]), [(Column("x"), True)])
        assert node.execute()[0] == (NULL,)

    def test_limit(self, left):
        assert LimitNode(left, 2).execute() == LEFT[:2]
        assert LimitNode(left, 0).execute() == []

    def test_distinct(self):
        node = DistinctNode(values(["x"], [(1,), (1,), (2,)]))
        assert node.execute() == [(1,), (2,)]

    def test_explain_contains_estimates(self, left):
        node = FilterNode(left, Comparison(">", Column("x"), Literal(1)))
        assert "Filter" in node.explain()


class TestJoins:
    CONDITION = Comparison("=", Column("k"), Column("k2"))
    KEYS = [(0, 0)]

    def build(self, strategy, kind, left, right, condition=CONDITION, keys=KEYS):
        if strategy == "nestloop":
            return NestedLoopJoinNode(left, right, kind, condition)
        if strategy == "hash":
            return HashJoinNode(left, right, kind, condition, keys)
        return MergeJoinNode(left, right, kind, condition, keys)

    @pytest.mark.parametrize("strategy", ["nestloop", "hash", "merge"])
    def test_inner_join(self, strategy, left, right):
        result = set(self.build(strategy, "inner", left, right).execute())
        assert result == {("a", 1, "a", 10), ("a", 1, "a", 11)}

    @pytest.mark.parametrize("strategy", ["nestloop", "hash", "merge"])
    def test_left_outer_join(self, strategy, left, right):
        result = set(self.build(strategy, "left", left, right).execute())
        assert ("b", 2, NULL, NULL) in result
        assert ("c", 3, NULL, NULL) in result
        assert len(result) == 4

    @pytest.mark.parametrize("strategy", ["nestloop", "hash", "merge"])
    def test_right_outer_join(self, strategy, left, right):
        result = set(self.build(strategy, "right", left, right).execute())
        assert (NULL, NULL, "d", 12) in result
        assert len(result) == 3

    @pytest.mark.parametrize("strategy", ["nestloop", "hash", "merge"])
    def test_full_outer_join(self, strategy, left, right):
        result = set(self.build(strategy, "full", left, right).execute())
        assert len(result) == 5

    @pytest.mark.parametrize("strategy", ["nestloop", "hash", "merge"])
    def test_semi_and_anti_join(self, strategy, left, right):
        semi = set(self.build(strategy, "semi", left, right).execute())
        anti = set(self.build(strategy, "anti", left, right).execute())
        assert semi == {("a", 1)}
        assert anti == {("b", 2), ("c", 3)}

    @pytest.mark.parametrize("strategy", ["nestloop", "hash", "merge"])
    def test_null_keys_never_match(self, strategy):
        left = values(["k", "x"], [(NULL, 1), ("a", 2)])
        right = values(["k2", "y"], [(NULL, 10), ("a", 20)])
        result = set(self.build(strategy, "left", left, right).execute())
        assert (NULL, 1, NULL, NULL) in result
        assert ("a", 2, "a", 20) in result

    def test_residual_condition_checked(self, left, right):
        condition = Comparison("<", Column("y"), Literal(11))
        node = HashJoinNode(left, right, "inner",
                            Comparison("=", Column("k"), Column("k2")).__class__(
                                "=", Column("k"), Column("k2")),
                            self.KEYS)
        # With an extra residual conjunct, only y=10 survives.
        from repro.engine.expressions import And

        node = HashJoinNode(left, right, "inner",
                            And(Comparison("=", Column("k"), Column("k2")), condition),
                            self.KEYS)
        assert node.execute() == [("a", 1, "a", 10)]

    def test_hash_and_merge_require_keys(self, left, right):
        with pytest.raises(PlanError):
            HashJoinNode(left, right, "inner", None, [])
        with pytest.raises(PlanError):
            MergeJoinNode(left, right, "inner", None, [])

    def test_unknown_kind(self, left, right):
        with pytest.raises(PlanError):
            NestedLoopJoinNode(left, right, "sideways", None)

    def test_cross_join(self, left, right):
        node = NestedLoopJoinNode(left, right, "cross", None)
        assert len(node.execute()) == 9


class TestAggregation:
    def test_grouped_aggregates(self):
        child = values(["g", "x"], [("a", 1), ("a", 3), ("b", 5)])
        node = HashAggregateNode(
            child,
            [(Column("g"), "g")],
            [
                AggregateCall("COUNT", None, "cnt"),
                AggregateCall("SUM", Column("x"), "total"),
                AggregateCall("AVG", Column("x"), "mean"),
                AggregateCall("MIN", Column("x"), "low"),
                AggregateCall("MAX", Column("x"), "high"),
            ],
        )
        rows = {row[0]: row[1:] for row in node.execute()}
        assert rows["a"] == (2, 4, 2.0, 1, 3)
        assert rows["b"] == (1, 5, 5.0, 5, 5)

    def test_global_aggregate_on_empty_input(self):
        node = HashAggregateNode(values(["x"], []), [], [AggregateCall("COUNT", None, "cnt")])
        assert node.execute() == [(0,)]

    def test_count_of_a_column_and_sum_skip_nulls(self):
        child = values(["x"], [(1,), (NULL,)])
        node = HashAggregateNode(child, [], [
            AggregateCall("COUNT", Column("x"), "cnt"),
            AggregateCall("COUNT", None, "rows"),
            AggregateCall("SUM", Column("x"), "total"),
        ])
        assert node.execute() == [(1, 2, 1)]

    def test_unknown_function_rejected(self):
        with pytest.raises(PlanError):
            AggregateCall("MEDIAN", None, "m")

    MIXED = [("a", 1), ("a", "z"), ("b", 2.5)]

    def _grouped(self, function):
        node = HashAggregateNode(
            values(["k", "x"], self.MIXED),
            [(Column("k"), "k")],
            [AggregateCall(function, Column("x"), "m")],
        )
        return node.execute()

    def test_min_over_mixed_types_follows_the_sort_order(self):
        # ORDER BY's total order: across types by type name, so 1 < 'z'.
        ordered = SortNode(values(["x"], [(1,), ("z",)]), [(Column("x"), True)]).execute()
        assert ordered == [(1,), ("z",)]
        assert self._grouped("MIN") == [("a", 1), ("b", 2.5)]

    def test_max_over_mixed_types_follows_the_sort_order(self):
        assert self._grouped("MAX") == [("a", "z"), ("b", 2.5)]

    def test_sum_over_a_non_numeric_value_is_a_query_error(self):
        with pytest.raises(QueryError, match="SUM over the non-numeric value 'z'"):
            self._grouped("SUM")

    def test_avg_over_a_non_numeric_value_is_a_query_error(self):
        with pytest.raises(QueryError, match="AVG"):
            self._grouped("AVG")


class TestSetOpsAndAbsorb:
    def test_union_all_and_union(self):
        a = values(["x"], [(1,), (2,)])
        b = values(["x"], [(2,), (3,)])
        assert SetOpNode("union_all", a, b).execute() == [(1,), (2,), (2,), (3,)]
        assert SetOpNode("union", a, b).execute() == [(1,), (2,), (3,)]

    def test_except_and_intersect(self):
        a = values(["x"], [(1,), (2,), (2,)])
        b = values(["x"], [(2,)])
        assert SetOpNode("except", a, b).execute() == [(1,)]
        assert SetOpNode("intersect", a, b).execute() == [(2,)]

    def test_width_mismatch_rejected(self):
        with pytest.raises(PlanError):
            SetOpNode("union", values(["x"], []), values(["x", "y"], []))
        with pytest.raises(PlanError):
            SetOpNode("symmetric_difference", values(["x"], []), values(["x"], []))

    def test_absorb_removes_covered_rows(self):
        child = values(["v", "ts", "te"], [("a", 1, 9), ("a", 3, 7), ("b", 3, 7), ("a", 1, 9)])
        node = AbsorbNode(child, start_index=1, end_index=2)
        assert set(node.execute()) == {("a", 1, 9), ("b", 3, 7)}

    def test_absorb_preserves_column_positions(self):
        child = values(["ts", "v", "te"], [(1, "a", 9), (3, "a", 7)])
        node = AbsorbNode(child, start_index=0, end_index=2)
        assert node.execute() == [(1, "a", 9)]


class TestColumnOnlyProject:
    """A projection of bare column references picks positions instead of
    evaluating; it must be indistinguishable from the evaluated path."""

    ROWS = [("a", 1, 5, NULL), ("b", 2, 6, "x"), ("a", 1, 5, NULL)]
    COLUMNS = ["t.k", "t.x", "ts", "u"]

    def both(self, expressions):
        child = values(self.COLUMNS, self.ROWS)
        node = ProjectNode(child, expressions)
        assert node._positions is not None
        evaluated = [tuple(b(row) for b in node._bound) for row in self.ROWS]
        return node.execute(), evaluated, node

    def test_single_column_keeps_row_shape(self):
        actual, evaluated, node = self.both([(Column("x"), "x")])
        assert actual == evaluated == [(1,), (2,), (1,)]
        assert node.columns == ["x"]

    def test_repeated_and_reordered_columns(self):
        expressions = [(Column("ts"), "a"), (Column("k"), "b"), (Column("ts"), "c")]
        actual, evaluated, _ = self.both(expressions)
        assert actual == evaluated == [(5, "a", 5), (6, "b", 6), (5, "a", 5)]

    def test_qualified_names_and_index_columns(self):
        from repro.engine.expressions import IndexColumn

        expressions = [(Column("t.x"), "x"), (IndexColumn(3), "u"), (Column("t.k"), "k")]
        actual, evaluated, _ = self.both(expressions)
        assert actual == evaluated == [(1, NULL, "a"), (2, "x", "b"), (1, NULL, "a")]

    def test_restartable_and_lazy(self):
        node = ProjectNode(values(self.COLUMNS, self.ROWS), [(Column("k"), "k")])
        assert node.execute() == node.execute() == [("a",), ("b",), ("a",)]
        assert next(iter(node)) == ("a",)

    def test_any_computed_expression_takes_the_evaluated_path(self):
        node = ProjectNode(
            values(self.COLUMNS, self.ROWS), [(Column("k"), "k"), (Literal(1), "one")]
        )
        assert node._positions is None
        assert node.execute() == [("a", 1), ("b", 1), ("a", 1)]

    def test_unknown_column_still_rejected_at_build_time(self):
        from repro.relation.errors import QueryError

        with pytest.raises(QueryError):
            ProjectNode(values(self.COLUMNS, self.ROWS), [(Column("nope"), "n")])


class TestHashJoinResidual:
    """The residual re-check is skipped exactly when the condition is the
    key equalities, and the result never depends on whether it ran."""

    LEFT_ROWS = [("a", 1, 7), ("a", 2, 7), (NULL, 3, 7), ("b", NULL, 7), ("c", 1, 9)]
    RIGHT_ROWS = [("a", 1, 5), ("a", 1, 6), (NULL, 3, 5), ("b", NULL, 5), ("d", 4, 5)]
    KINDS = ["inner", "left", "right", "full", "semi", "anti"]

    def inputs(self):
        return (
            values(["l.k", "l.n", "l.v"], self.LEFT_ROWS),
            values(["r.k", "r.n", "r.w"], self.RIGHT_ROWS),
        )

    def pure(self):
        from repro.engine.expressions import And

        return And(
            Comparison("=", Column("l.k"), Column("r.k")),
            Comparison("=", Column("r.n"), Column("l.n")),  # sides swapped on purpose
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_pure_key_condition_skips_the_residual_with_equal_rows(self, kind):
        left, right = self.inputs()
        keys = [(0, 0), (1, 1)]
        node = HashJoinNode(left, right, kind, self.pure(), keys)
        assert node._residual is None
        expected = NestedLoopJoinNode(left, right, kind, self.pure()).execute()
        assert node.execute() == expected
        # ω keys (scalar and inside a composite key) pad or anti-match.
        if kind == "left":
            assert ((NULL, 3, 7) + (NULL,) * 3) in expected
            assert (("b", NULL, 7) + (NULL,) * 3) in expected
        if kind == "anti":
            assert (NULL, 3, 7) in expected and ("b", NULL, 7) in expected

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_key_column_with_null_keys(self, kind):
        left, right = self.inputs()
        condition = Comparison("=", Column("l.k"), Column("r.k"))
        node = HashJoinNode(left, right, kind, condition, [(0, 0)])
        assert node._residual is None
        assert node.execute() == NestedLoopJoinNode(left, right, kind, condition).execute()

    def test_no_condition_means_no_residual(self):
        left, right = self.inputs()
        node = HashJoinNode(left, right, "inner", None, [(0, 0)])
        assert node._residual is None
        assert len(node.execute()) == 5  # the key column alone decides

    def test_keys_that_cover_only_part_of_the_condition_keep_it(self):
        left, right = self.inputs()
        node = HashJoinNode(left, right, "inner", self.pure(), [(0, 0)])
        assert node._residual is not None
        assert node.execute() == [("a", 1, 7, "a", 1, 5), ("a", 1, 7, "a", 1, 6)]

    def test_keys_on_other_columns_than_the_condition_keep_it(self):
        left, right = self.inputs()
        condition = Comparison("=", Column("l.k"), Column("r.k"))
        node = HashJoinNode(left, right, "inner", condition, [(1, 1)])
        assert node._residual is not None
        assert node.execute() == [("a", 1, 7, "a", 1, 5), ("a", 1, 7, "a", 1, 6)]

    @pytest.mark.parametrize("kind", KINDS)
    def test_inequality_conjunct_still_applies(self, kind):
        # The shape of an ALIGN θ such as ``r.cat = s.cat AND r.min_dur < s.max_dur``.
        from repro.engine.expressions import And

        left, right = self.inputs()
        condition = And(
            Comparison("=", Column("l.k"), Column("r.k")),
            Comparison("<", Column("l.n"), Column("r.w")),
            Comparison("<", Column("r.w"), Literal(6)),
        )
        node = HashJoinNode(left, right, kind, condition, [(0, 0)])
        assert node._residual is not None
        assert node.execute() == NestedLoopJoinNode(left, right, kind, condition).execute()


def _reference_absorb(rows, start_index, end_index):
    """The absorb algorithm as first written: key tuples, a parallel order
    list, ``sorted(set(...))`` for every group, rows rebuilt by insertion."""
    groups, order = {}, []
    for row in rows:
        key = tuple(v for i, v in enumerate(row) if i not in (start_index, end_index))
        if key not in groups:
            order.append(key)
            groups[key] = []
        groups[key].append((row[start_index], row[end_index]))
    output = []
    for key in order:
        max_end = None
        for start, end in sorted(set(groups[key]), key=lambda iv: (iv[0], -iv[1])):
            if max_end is not None and end <= max_end:
                continue
            max_end = end if max_end is None else max(max_end, end)
            out = list(key)
            first, second = sorted((start_index, end_index))
            out.insert(first, None)
            out.insert(second, None)
            out[start_index] = start
            out[end_index] = end
            output.append(tuple(out))
    return output


class TestAbsorbMatchesReference:
    @pytest.mark.parametrize("layout", [(2, 3), (0, 3), (3, 1), (0, 1)])
    @pytest.mark.parametrize("seed", range(5))
    def test_rows_and_order_on_random_input(self, layout, seed):
        import random

        rng = random.Random(seed)
        start_index, end_index = layout
        rows = []
        for _ in range(300):
            start = rng.randrange(0, 12)
            # Few distinct starts/ends: duplicates, nested and equal-start
            # intervals are the common case, not the exception.
            row = [rng.choice(["a", "b", NULL]), rng.choice([1, NULL])]
            pair = {start_index: start, end_index: start + rng.randrange(0, 6)}
            for position in sorted(pair):
                row.insert(position, pair[position])
            rows.append(tuple(row))
        node = AbsorbNode(values(["c0", "c1", "c2", "c3"], rows), start_index, end_index)
        assert node.execute() == _reference_absorb(rows, start_index, end_index)

    def test_interval_only_and_single_value_rows(self):
        rows = [(1, 9), (3, 7), (1, 9), (8, 12)]
        assert AbsorbNode(values(["ts", "te"], rows), 0, 1).execute() == _reference_absorb(
            rows, 0, 1
        )
        rows = [("a", 1, 9), ("a", 1, 4), ("b", 1, 4), ("a", 0, 1)]
        assert AbsorbNode(values(["v", "ts", "te"], rows), 1, 2).execute() == [
            ("a", 0, 1),
            ("a", 1, 9),
            ("b", 1, 4),
        ]

    def test_single_row_groups_pass_through_unchanged(self):
        rows = [("a", NULL, 1, 9), ("b", NULL, 1, 9)]
        out = AbsorbNode(values(["v", "w", "ts", "te"], rows), 2, 3).execute()
        assert out == rows and all(a is b for a, b in zip(out, rows))
