"""Streaming semantics of the executor and the row plan's group-construction join.

The executor's pipelining claim is behavioural: a short-circuiting consumer
(``LIMIT``, ``semi``) must stop upstream work, not merely discard its output.
These tests splice :class:`~repro.engine.executor.instrument.CountingNode`
into pipelines and assert on the number of rows actually pulled.
"""

import pytest

from repro.engine.database import Database
from repro.engine.executor import (
    CountingNode,
    FilterNode,
    HashJoinNode,
    LimitNode,
    NestedLoopJoinNode,
    ProjectNode,
    SeqScanNode,
    ValuesNode,
)
from repro.engine.expressions import Column, Comparison, IndexColumn
from repro.engine.optimizer.settings import Settings
from repro.engine.plan import Align, Limit, Scan
from repro.engine.table import Table
from repro.relation.tuple import NULL
from repro.workloads.incumben import IncumbenConfig, generate_incumben


def big_table(size=1000):
    return Table("t", ("id", "k"), [(i, i % 7) for i in range(size)])


class TestLimitShortCircuit:
    def test_limit_over_scan_pulls_only_k_rows(self):
        scan = CountingNode(SeqScanNode("t", big_table()))
        limit = LimitNode(scan, 5)
        assert len(limit.execute()) == 5
        assert scan.pulled == 5  # O(k), not 1000

    def test_limit_through_filter_project_chain(self):
        scan = CountingNode(SeqScanNode("t", big_table()))
        filtered = FilterNode(scan, Comparison("=", Column("k"), _literal(3)))
        projected = ProjectNode(filtered, [(Column("id"), "id")])
        limit = LimitNode(projected, 4)
        assert limit.execute() == [(3,), (10,), (17,), (24,)]
        # The filter passes 1 in 7 rows, so 4 output rows need ~4*7 scanned.
        assert scan.pulled <= 4 * 7

    def test_limit_over_hash_join_stops_outer_scan(self):
        outer = CountingNode(SeqScanNode("t", big_table()))
        inner = CountingNode(SeqScanNode("t", big_table(50)))
        join = HashJoinNode(
            outer, inner, "inner",
            Comparison("=", IndexColumn(1), IndexColumn(3)), key_pairs=[(1, 1)],
        )
        limit = LimitNode(join, 3)
        assert len(limit.execute()) == 3
        assert inner.pulled == 50  # the hash build is inherently blocking
        assert outer.pulled <= 3  # ... but the probe side streams

    def test_database_stream_is_lazy(self):
        database = Database()
        database.register_table(big_table())
        plan = Limit(Scan("t", ("id", "k")), 2)
        rows = database.stream(plan)
        assert next(rows) == (0, 0)
        assert next(rows) == (1, 1)
        with pytest.raises(StopIteration):
            next(rows)


class TestNestedLoopReplayBuffer:
    def test_semi_join_stops_pulling_inner_after_first_match(self):
        left = ValuesNode(["a"], [(i,) for i in range(20)])
        right = CountingNode(ValuesNode(["b"], [(i,) for i in range(1000)]))
        # Every left row matches the very first right row (b = 0 ... always true for b=0)
        join = NestedLoopJoinNode(left, right, "semi",
                                  Comparison("=", IndexColumn(1), _literal(0)))
        assert len(join.execute()) == 20
        assert right.pulled == 1  # first pass pulls one row; replays hit the cache

    def test_limit_over_nested_loop_join_is_incremental(self):
        left = ValuesNode(["a"], [(i,) for i in range(10)])
        right = CountingNode(ValuesNode(["b"], [(i,) for i in range(1000)]))
        join = NestedLoopJoinNode(left, right, "inner", None)  # cross product
        limit = LimitNode(join, 5)
        assert len(limit.execute()) == 5
        assert right.pulled == 5  # not 1000

    def test_right_outer_join_still_drains_inner(self):
        left = ValuesNode(["a"], [(1,)])
        right = CountingNode(ValuesNode(["b"], [(1,), (2,), (3,)]))
        join = NestedLoopJoinNode(left, right, "right",
                                  Comparison("=", IndexColumn(0), IndexColumn(1)))
        result = join.execute()
        assert sorted(result, key=repr) == sorted(
            [(1, 1), (NULL, 2), (NULL, 3)], key=repr)
        assert right.pulled == 3

    def test_inner_rescans_replay_from_cache(self):
        left = ValuesNode(["a"], [(1,), (2,)])
        right = CountingNode(ValuesNode(["b"], [(10,), (20,)]))
        join = NestedLoopJoinNode(left, right, "inner", None)
        assert len(join.execute()) == 4
        assert right.pulled == 2  # pulled once, replayed for the second left row
        assert right.open_count == 1


class TestPlannerGroupJoin:
    #: The row pipeline (ALIGN is otherwise a columnar batch), whose
    #: group-construction join is planned among Fig. 13's strategies.
    ROW = Settings(enable_columnar=False)

    def _database(self):
        database = Database()
        relation = generate_incumben(config=IncumbenConfig(size=150, seed=9))
        database.register_relation("r", relation)
        database.register_relation("s", relation)
        return database

    def _align_plan(self, database, condition=None):
        r = database.get_table("r")
        s = database.get_table("s")
        return Align(Scan("r", r.columns, "r"), Scan("s", s.columns, "s"), condition)

    def test_unkeyed_align_group_join_is_a_nested_loop(self):
        database = self._database()
        explain = database.plan(self._align_plan(database), self.ROW).explain()
        assert "NestedLoopJoin(left)" in explain

    def test_alignment_result_identical_across_strategies(self):
        database = self._database()
        plan = self._align_plan(database, Comparison("=", Column("r.pcn"), Column("s.pcn")))
        only = {
            "HashJoin": self.ROW,
            "MergeJoin": self.ROW.copy(enable_hashjoin=False),
            "NestedLoopJoin": self.ROW.copy(enable_hashjoin=False, enable_mergejoin=False),
        }
        results = []
        for node, settings in only.items():
            assert node in database.plan(plan, settings).explain()
            results.append(sorted(database.execute(plan, settings).rows, key=repr))
        assert results[0] == results[1] == results[2]


def _literal(value):
    from repro.engine.expressions import Literal

    return Literal(value)
