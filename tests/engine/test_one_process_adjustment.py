"""One-process ALIGN/NORMALIZE: the kernel node against the Fig. 12(b) row pipeline.

Every adjustment plans as one ``ColumnarAdjustment`` node that runs in the
querying process; ``enable_columnar=False`` plans the paper's row pipeline
(join → project → sort → sweep) instead.  The obligation is that the two are
one function *including row order*: on all three synthetic families, for
the query shapes of the benchmark (keyed, unkeyed, with a residual θ, over
bare scans whose cached frames the node reads and over filtered CTEs whose
rows it drains), with NumPy kernels and with their pure-Python twins.

Bounds the NumPy kernels cannot hold (floats, fractions, strings) run the
pure-Python twins — the node has no other route — and an argument row with
ω as a bound is one typed error on both plans.
"""

from __future__ import annotations

import pytest

from repro.columnar.runtime import forced_python, numpy_available
from repro.engine.database import Database
from repro.engine.executor import AdjustmentNode, ColumnarAdjustmentNode
from repro.engine.expressions import Column, Comparison
from repro.engine.optimizer.settings import Settings
from repro.engine.table import Table
from repro.engine.temporal_plans import align_plan, normalize_plan, scan
from repro.obs import trace as obs_trace
from repro.relation.errors import QueryError
from repro.relation.tuple import NULL
from repro.sql.interface import Connection
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_disjoint,
    generate_equal,
    generate_random,
)

FAMILIES = {
    "disjoint": generate_disjoint,
    "equal": generate_equal,
    "random": generate_random,
}

COLUMNAR = Settings()
ROW = Settings(enable_columnar=False)

_FILTERED = (
    "WITH a AS (SELECT * FROM r WHERE r.min_dur > 20), "
    "b AS (SELECT * FROM s WHERE s.min_dur > 20) "
)

#: query -> (SQL, whether both adjustment inputs are bare relation scans,
#: i.e. whether the node reads cached frames when NumPy is present).
QUERIES = {
    "K1": ("SELECT * FROM (r ALIGN s ON r.cat = s.cat) x", True),
    "K2": ("SELECT * FROM (r r1 NORMALIZE s s1 USING(cat)) x", True),
    "K4": (
        "SELECT cat, COUNT(*) c, ts, te FROM (r r1 NORMALIZE r r2 USING(cat)) x "
        "GROUP BY cat, ts, te",
        True,
    ),
    "K1-filtered": (_FILTERED + "SELECT * FROM (a ALIGN b ON a.cat = b.cat) x", False),
    "K2-filtered": (_FILTERED + "SELECT * FROM (a a1 NORMALIZE b b1 USING(cat)) x", False),
    "T1": ("SELECT * FROM (r ALIGN s ON r.cat = s.cat AND r.min_dur < s.max_dur) x", True),
    "T2": (
        "WITH ru AS (SELECT ts us, te ue, * FROM r) SELECT * FROM "
        "(ru ALIGN s ON DUR(us, ue) BETWEEN s.min_dur AND s.max_dur) x",
        False,
    ),
    "T3": ("SELECT * FROM (r r1 NORMALIZE s s1 USING()) x", True),
    "unkeyed-align": ("SELECT * FROM (r ALIGN s ON TRUE) x", True),
}


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


def _connection(family, size=150):
    left, right = FAMILIES[family](config=SyntheticConfig(size=size, categories=10, seed=9))
    connection = Connection(Database())
    connection.register_relation("r", left)
    connection.register_relation("s", right)
    return connection


class TestBenchmarkShapesMatchTheRowPipeline:
    """The kernel node and the row pipeline return the same ordered rows."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("query", list(QUERIES))
    def test_ordered_rows_equal_the_row_pipeline(self, query, family):
        sql, bare_scans = QUERIES[query]
        connection = _connection(family)
        database = connection.database
        logical = connection.logical_plan(sql)
        expected = database.execute(logical, ROW).rows
        assert expected

        physical = database.plan(logical, COLUMNAR)
        (node,) = [n for n in _walk(physical) if isinstance(n, ColumnarAdjustmentNode)]
        assert not any(isinstance(n, AdjustmentNode) for n in _walk(physical))
        with obs_trace.collect(physical) as trace:
            rows = physical.execute()
        facts = trace.span_for(node).attributes
        assert facts["input"] == ("frame" if bare_scans and numpy_available() else "rows")
        assert facts["executed"] == ("numpy" if numpy_available() else "python")
        assert rows == expected

        with forced_python():
            with obs_trace.collect(physical) as trace:
                assert physical.execute() == expected
        assert trace.span_for(node).attributes["executed"] == "python"


def _plain_database(left_rows, right_rows):
    database = Database()
    database.register_table(Table("l", ["cat", "ts", "te"], left_rows))
    database.register_table(Table("r", ["cat", "ts", "te"], right_rows))
    return database


def _shape_plan(database, shape):
    left, right = scan(database, "l", "l"), scan(database, "r", "r")
    if shape == "align-keyed":
        return align_plan(left, right, Comparison("=", Column("l.cat"), Column("r.cat")))
    if shape == "align-unkeyed":
        return align_plan(left, right, None)
    if shape == "normalize-keyed":
        return normalize_plan(left, right, ["cat"])
    return normalize_plan(left, right, [])


SHAPES = ["align-keyed", "align-unkeyed", "normalize-keyed", "normalize-unkeyed"]


def _kernel_node(database, shape):
    physical = database.plan(_shape_plan(database, shape), COLUMNAR)
    assert isinstance(physical, ColumnarAdjustmentNode)
    return physical


class TestEmptyInputs:
    @pytest.mark.parametrize("shape", ["align-keyed", "normalize-keyed"])
    def test_empty_reference_leaves_every_argument_row_whole(self, shape):
        argument = [("a", 0, 10), ("b", 3, 7)]
        database = _plain_database(argument, [])
        assert _kernel_node(database, shape).execute() == argument
        assert database.execute(_shape_plan(database, shape), ROW).rows == argument

    @pytest.mark.parametrize("shape", ["align-keyed", "normalize-keyed"])
    def test_empty_argument_yields_nothing(self, shape):
        database = _plain_database([], [("a", 0, 10)])
        assert _kernel_node(database, shape).execute() == []
        assert database.execute(_shape_plan(database, shape), ROW).rows == []


class TestNonIntegerBounds:
    """Bounds NumPy cannot hold run the pure-Python kernels, same result."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_fractional_bounds_run_the_python_kernels(self, shape):
        database = _plain_database(
            [("a", 0, 10), ("b", 1.5, 3.5), ("c", 4, 6)],
            [("a", 2, 5), ("b", 2, 3), ("c", 5, 9)],
        )
        node = _kernel_node(database, shape)
        with obs_trace.collect(node) as trace:
            rows = node.execute()
        assert trace.span_for(node).attributes["executed"] == "python"
        assert rows == database.execute(_shape_plan(database, shape), ROW).rows
        # The fractional row is adjusted, not dropped: it keeps its start.
        assert any(row[0] == "b" and row[1] == 1.5 for row in rows)

    @pytest.mark.parametrize("shape", ["align-keyed", "normalize-keyed"])
    def test_integers_beyond_int64_run_the_python_kernels(self, shape):
        big = 2**63
        database = _plain_database([("a", big, big + 10)], [("a", big + 2, big + 5)])
        node = _kernel_node(database, shape)
        with obs_trace.collect(node) as trace:
            rows = node.execute()
        assert trace.span_for(node).attributes["executed"] == "python"
        assert rows == [("a", big, big + 2), ("a", big + 2, big + 5), ("a", big + 5, big + 10)]
        assert rows == database.execute(_shape_plan(database, shape), ROW).rows


#: The row plan under each group-construction join it may choose.
ROW_PLANS = {
    "hash": ROW,
    "merge": ROW.copy(enable_hashjoin=False),
    "nestloop": ROW.copy(enable_hashjoin=False, enable_mergejoin=False),
}


class TestNullArgumentBounds:
    """ω (or Python ``None``) as an argument row's bound is a typed error that
    names the column, on the kernel node and on every row plan.  A reference
    row with an ω bound matches nothing under ALIGN; under NORMALIZE its
    other bound is still a split point (the split points are the reference's
    starts and ends, ω dropped point by point)."""

    @pytest.mark.parametrize("null", [NULL, None], ids=["omega", "none"])
    @pytest.mark.parametrize("column", ["ts", "te"])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("plan", ["kernel", *ROW_PLANS])
    def test_argument_null_bound_is_a_query_error(self, plan, shape, column, null):
        odd = ("a", null, 10) if column == "ts" else ("a", 0, null)
        database = _plain_database([("a", 0, 10), odd], [("a", 2, 5)])
        settings = COLUMNAR if plan == "kernel" else ROW_PLANS[plan]
        with pytest.raises(QueryError, match=f"'l.{column}'"):
            database.execute(_shape_plan(database, shape), settings)
        with forced_python(), pytest.raises(QueryError, match=f"'l.{column}'"):
            database.execute(_shape_plan(database, shape), settings)

    @pytest.mark.parametrize("null", [NULL, None], ids=["omega", "none"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_reference_null_bound_matches_nothing(self, shape, null):
        database = _plain_database(
            [("a", 0, 10)], [("a", 2, 5), ("a", null, 8), ("a", 6, null)]
        )
        plan = _shape_plan(database, shape)
        expected = [("a", 0, 2), ("a", 2, 5), ("a", 5, 10)]
        if shape.startswith("normalize"):
            expected = [("a", 0, 2), ("a", 2, 5), ("a", 5, 6), ("a", 6, 8), ("a", 8, 10)]
        assert database.execute(plan, COLUMNAR).rows == expected
        for settings in ROW_PLANS.values():
            assert database.execute(plan, settings).rows == expected
