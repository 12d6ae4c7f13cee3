"""Batches above the kernel, as EXPLAIN ANALYZE, deadlines and caches see them.

``analytic_keyed``'s K3 (two ALIGNs → HashJoin → Project → Absorb) and K4
(NORMALIZE → HashAggregate) hand the ``ColumnarAdjustment`` output up as a
batch until the first operator that builds rows.  The span of every node on
the way records one loop of the batch's length, so EXPLAIN ANALYZE reads
the same per-node rows as when each consumer pulls rows; the statement
deadline is checked at each hand-over; value codes over a relation's rows
are cached on the relation like its frames.
"""

from __future__ import annotations

import sqlite3
import time

import pytest

from repro.columnar.batch import Batch, Gathered, Ints, Source, absorb
from repro.columnar.runtime import forced_python, numpy_available, numpy_or_none
from repro.engine import deadline
from repro.engine.database import Database
from repro.engine.executor import (
    AbsorbNode,
    ColumnarAdjustmentNode,
    HashAggregateNode,
    HashJoinNode,
    ValuesNode,
)
from repro.engine.executor.base import PhysicalNode
from repro.engine.expressions import Column, Comparison, conjunction
from repro.engine.optimizer.settings import Settings
from repro.engine.plan import AggregateCall
from repro.obs import trace as obs_trace
from repro.relation.errors import QueryError, StatementTimeoutError
from repro.relation.tuple import NULL
from repro.server.protocol import error_kind
from repro.sql.interface import Connection
from repro.workloads.synthetic import SyntheticConfig, generate_random

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="NumPy not installed")

K3 = (
    "SELECT ABSORB r1.cat, r1.min_dur, r1.max_dur, s1.cat AS s_cat, s1.min_dur AS s_min, "
    "s1.max_dur AS s_max, r1.ts, r1.te "
    "FROM (r ALIGN s ON r.cat = s.cat) r1 LEFT OUTER JOIN (s ALIGN r ON s.cat = r.cat) s1 "
    "ON r1.cat = s1.cat AND r1.ts = s1.ts AND r1.te = s1.te"
)
K4 = (
    "SELECT cat, COUNT(*) c, ts, te FROM (r r1 NORMALIZE r r2 USING(cat)) x "
    "GROUP BY cat, ts, te"
)
#: K3 with the rows of both sides kept: a row of ``s1`` alone has ω bounds.
K3_FULL = K3.replace("LEFT OUTER JOIN", "FULL OUTER JOIN")
ROW = Settings(enable_columnar=False)


def _connection(size: int = 400) -> Connection:
    left, right = generate_random(config=SyntheticConfig(size=size, categories=12, seed=3))
    connection = Connection(Database())
    connection.register_relation("r", left)
    connection.register_relation("s", right)
    return connection


def _traced(connection: Connection, sql: str):
    physical = connection.database.plan(connection.logical_plan(sql))
    with obs_trace.collect(physical) as trace:
        rows = physical.execute()
    return rows, trace


def _inputs(trace):
    """``input=`` of every span but the adjustments' (``frame|rows``)."""
    return {
        span.label: span.attributes["input"]
        for span in trace.spans()
        if "input" in span.attributes and not span.label.startswith("ColumnarAdjustment")
    }


class TestExplainAnalyze:
    @needs_numpy
    @pytest.mark.parametrize("sql", [K3, K4], ids=["K3", "K4"])
    def test_rows_per_node_equal_the_row_consumers(self, sql, monkeypatch):
        connection = _connection()
        rows, trace = _traced(connection, sql)
        assert set(_inputs(trace).values()) == {"batch"}

        monkeypatch.setattr(PhysicalNode, "batch", lambda self: None)
        pulled, pulled_trace = _traced(connection, sql)
        assert set(_inputs(pulled_trace).values()) == {"rows"}
        assert rows == pulled == connection.database.execute(
            connection.logical_plan(sql), ROW
        ).rows

        def actuals(spans):
            return [(span.label, span.rows_out, span.loops) for span in spans.spans()]

        assert actuals(trace) == actuals(pulled_trace)
        # Exactly the inputs the adjustments read as frames stay unexecuted.
        below = {
            id(span) for a in trace.find("ColumnarAdjustment") for span in list(a.walk())[1:]
        }
        assert all(span.executed != (id(span) in below) for span in trace.spans())

    def test_declined_form_reads_the_batch_rows_once(self):
        # AVG has no batch form: the row code runs over the batch's rows.
        connection = _connection()
        sql = "SELECT cat, AVG(ts) a FROM (r ALIGN s ON r.cat = s.cat) x GROUP BY cat"
        rows, trace = _traced(connection, sql)
        assert _inputs(trace) == {"HashAggregate(group=['cat'], aggs=['a'])": "rows"}
        (adjustment,) = trace.find("ColumnarAdjustment")
        assert adjustment.loops == 1
        assert rows == connection.database.execute(connection.logical_plan(sql), ROW).rows

    def test_without_numpy_no_batch_is_handed_over(self):
        connection = _connection(size=120)
        with forced_python():
            rows, trace = _traced(connection, K3)
        assert set(_inputs(trace).values()) == {"rows"}
        assert rows == connection.database.execute(connection.logical_plan(K3), ROW).rows


class TestDeadline:
    def test_k3_times_out_with_the_typed_error(self):
        session = _connection(size=4000).database.session()
        with pytest.raises(StatementTimeoutError, match="statement_timeout_ms=1") as error:
            session.execute(K3, settings=Settings(statement_timeout_ms=1.0))
        assert error_kind(error.value) == "timeout"

    def test_an_expired_deadline_stops_the_hand_over(self):
        connection = _connection(size=50)
        physical = connection.database.plan(connection.logical_plan(K4))
        adjustment = next(
            node for node in _walk(physical) if isinstance(node, ColumnarAdjustmentNode)
        )
        with deadline.deadline_scope(0.001):
            time.sleep(0.002)
            with pytest.raises(StatementTimeoutError):
                adjustment.batch()


@needs_numpy
class TestValueCodes:
    def test_cached_on_the_argument_relation_until_it_changes(self):
        connection = _connection()
        database = connection.database
        first = database.execute(connection.logical_plan(K3)).rows
        relation = database.get_relation("r")
        key = ("columnar", "value_codes", (0,))
        assert relation.peek_derived(key) is not None
        assert database.execute(connection.logical_plan(K3)).rows == first

        database.update_rows("r", {"cat": "C0001"}, predicate=lambda t: t["cat"] == "C0002")
        assert relation.peek_derived(key) is None
        rows = database.execute(connection.logical_plan(K3)).rows
        assert rows == database.execute(connection.logical_plan(K3), ROW).rows
        assert rows != first


class _Handed(PhysicalNode):
    """A leaf that hands over a fixed batch, or iterates its rows."""

    def __init__(self, columns, batch):
        super().__init__(columns)
        self.handed = batch

    def rows(self):
        return iter(self.handed.materialize())

    def produce_batch(self):
        return self.handed


def _handed(columns, keys, ints, nulls=None):
    """``keys`` (one value per row) gathered from a source, then integer
    columns; ``nulls`` marks ω in the last integer column."""
    np = numpy_or_none()
    source = Source([(key,) for key in keys], np.arange(len(keys)), 1)
    last = len(ints) - 1
    integers = [
        Ints(np.asarray(values, dtype=np.int64), nulls if i == last else None)
        for i, values in enumerate(ints)
    ]
    return _Handed(columns, Batch([Gathered(source, 0)] + integers, len(keys)))


BIG = 2**62


@needs_numpy
class TestFormsAtTheInt64Edge:
    """Each form against its row operator over the same rows, on integers
    whose ranges overflow a naive combined code."""

    KEYS = ["a", "a", "b", "a", 1, 1.0]
    TS = [0, 2**40, 0, 0, -BIG, -BIG]
    TE = [2**40, 2**40 + 1, 2**40, 2**40, BIG, BIG - 1]

    def _both(self, build, *children):
        handed = build(*children)
        rows = build(*[ValuesNode(c.columns, c.handed.materialize()) for c in children])
        with obs_trace.collect(handed) as trace:
            result = handed.execute()
        assert result == rows.execute()
        return result, trace.span_for(handed).attributes.get("input")

    def test_grouping_reranks_codes_before_they_overflow(self):
        # 6 * D = 2**64 + 2: with five keys (six codes, ω's included) a plain
        # te * 6 + key would give (v0, D) and (v2, 0) the same code.
        wide = (2**64 + 2) // 6
        child = _handed(
            ["k", "te"], ["v0", "v1", "v2", "v3", "v4", "v0", "v2"], [[5] * 5 + [wide, 0]]
        )
        groups = [(Column("k"), "k"), (Column("te"), "te")]
        calls = [AggregateCall("COUNT", None, "c"), AggregateCall("MIN", Column("te"), "lo")]
        result, source = self._both(lambda c: HashAggregateNode(c, groups, calls), child)
        assert source == "batch"
        assert len(result) == 7

    def test_grouping_with_mixed_key_types_and_extreme_bounds(self):
        child = _handed(["k", "ts", "te"], self.KEYS, [self.TS, self.TE])
        calls = [
            AggregateCall("COUNT", None, "c"),
            AggregateCall("MIN", Column("ts"), "lo"),
            AggregateCall("MAX", Column("te"), "hi"),
        ]
        groups = [(Column(name), name) for name in ("k", "ts", "te")]
        result, source = self._both(lambda c: HashAggregateNode(c, groups, calls), child)
        assert source == "batch"
        assert result[0] == ("a", 0, 2**40, 2, 0, 2**40)
        # A sum that could leave int64 is left to the row code.
        total = [AggregateCall("SUM", Column("te"), "s")]
        _, source = self._both(lambda c: HashAggregateNode(c, groups[:1], total), child)
        assert source == "rows"

    def test_absorb_over_extreme_bounds(self):
        child = _handed(["k", "ts", "te"], self.KEYS, [self.TS, self.TE])
        result, source = self._both(lambda c: AbsorbNode(c, 1, 2), child)
        assert source == "batch"
        assert result == [
            ("a", 0, 2**40), ("a", 2**40, 2**40 + 1), ("b", 0, 2**40), (1, -BIG, BIG)
        ]

    def test_join_skips_null_integer_keys(self):
        np = numpy_or_none()
        left = _handed(["k", "ts"], ["a", "a", "b"], [[1, 2, 1]])
        right = _handed(
            ["k2", "ts2"], ["a", "a", "b"], [[1, 2, 1]], nulls=np.array([False, True, False])
        )
        condition = conjunction(
            [Comparison("=", Column(a), Column(b)) for a, b in (("k", "k2"), ("ts", "ts2"))]
        )

        def join(probe, build):
            return HashJoinNode(probe, build, "left", condition, [(0, 0), (1, 1)])

        rows = join(*[ValuesNode(c.columns, c.handed.materialize()) for c in (left, right)])
        rows = rows.execute()
        assert join(left, right).batch().materialize() == rows
        assert rows == [("a", 1, "a", 1), ("a", 2, NULL, NULL), ("b", 1, "b", 1)]


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


class TestAggregatesAgainstSqlite:
    """GROUP BY over a column with ω, both forms against the stdlib ``sqlite3``
    (ω is SQL NULL: ``COUNT(x)`` and the reducers skip it, ``COUNT(*)`` does not)."""

    PROBE = [("a", 1), ("a", NULL), ("a", 3), ("b", NULL), ("b", 2), ("c", 5)]
    CALLS = [
        AggregateCall("COUNT", Column("x"), "cx"),
        AggregateCall("COUNT", None, "c"),
        AggregateCall("SUM", Column("x"), "s"),
        AggregateCall("MIN", Column("x"), "lo"),
        AggregateCall("MAX", Column("x"), "hi"),
    ]

    def _sqlite(self):
        connection = sqlite3.connect(":memory:")
        try:
            connection.execute("CREATE TABLE r (k TEXT, x INTEGER)")
            rows = [(k, None if x is NULL else x) for k, x in self.PROBE]
            connection.executemany("INSERT INTO r VALUES (?, ?)", rows)
            return sorted(connection.execute(
                "SELECT k, COUNT(x), COUNT(*), SUM(x), MIN(x), MAX(x) FROM r GROUP BY k"
            ).fetchall())
        finally:
            connection.close()

    def _run(self, child):
        node = HashAggregateNode(child, [(Column("k"), "k")], self.CALLS)
        with obs_trace.collect(node) as trace:
            rows = node.execute()
        bag = sorted(tuple(None if v is NULL else v for v in row) for row in rows)
        return bag, trace.span_for(node).attributes.get("input")

    def test_row_form(self):
        bag, _ = self._run(ValuesNode(["k", "x"], self.PROBE))
        assert bag == self._sqlite() == [
            ("a", 2, 3, 4, 1, 3), ("b", 1, 2, 2, 2, 2), ("c", 1, 1, 5, 5, 5)
        ]

    @needs_numpy
    def test_batch_form(self):
        np = numpy_or_none()
        keys = [k for k, _ in self.PROBE]
        nulls = np.array([x is NULL for _, x in self.PROBE])
        xs = [0 if x is NULL else x for _, x in self.PROBE]
        bag, source = self._run(_handed(["k", "x"], keys, [xs], nulls=nulls))
        assert source == "batch"
        assert bag == self._sqlite()

    @needs_numpy
    def test_count_of_a_non_integer_column_declines_to_rows(self):
        child = _handed(["k", "x"], ["a", "a"], [[1, 2]])
        count = [AggregateCall("COUNT", Column("k"), "c")]
        node = HashAggregateNode(child, [(Column("x"), "x")], count)
        with obs_trace.collect(node) as trace:
            assert node.execute() == [(1, 1), (2, 1)]
        assert trace.span_for(node).attributes.get("input") == "rows"


class TestAbsorbOverNullBounds:
    """ABSORB compares intervals, so ω as a bound (an outer join's padded
    row) is a QueryError naming the bound, on the batch and the row form."""

    # At 400 tuples ω rows share their values (the row form once compared
    # ω with an int); at 40 every ω row is a group of its own.
    @pytest.mark.parametrize("size", [400, 40])
    @pytest.mark.parametrize("settings", [Settings(), ROW], ids=["columnar", "row"])
    def test_full_outer_k3_is_a_query_error(self, settings, size):
        connection = _connection(size)
        with pytest.raises(QueryError, match="null interval bound in 'ts'"):
            connection.database.execute(connection.logical_plan(K3_FULL), settings)

    @pytest.mark.parametrize("null", [NULL, None], ids=["omega", "none"])
    def test_one_row_group_is_a_query_error(self, null):
        node = AbsorbNode(ValuesNode(["k", "ts", "te"], [("a", 0, 5), ("b", 1, null)]), 1, 2)
        with pytest.raises(QueryError, match="null interval bound in 'te'"):
            node.execute()

    @needs_numpy
    def test_batch_form_raises(self):
        np = numpy_or_none()
        child = _handed(
            ["k", "ts", "te"], ["a", "b"], [[0, 1], [5, 0]], nulls=np.array([False, True])
        )
        with pytest.raises(QueryError, match="null interval bound in 'te'"):
            absorb(child.handed, 1, 2, child.columns)
