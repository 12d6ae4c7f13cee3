"""One-process ALIGN/NORMALIZE: the kernel node against the Fig. 12(b) row pipeline.

Every adjustment plans as one ``ColumnarAdjustment`` node that runs in the
querying process; ``enable_columnar=False`` plans the paper's row pipeline
(join → project → sort → sweep) instead.  The obligation is that the two are
one function *including row order*: on all three synthetic families, for
the query shapes of the benchmark (keyed, unkeyed, with a residual θ, over
bare scans whose cached frames the node reads and over filtered CTEs whose
rows it drains), with NumPy kernels and with their pure-Python twins.

The row pipeline is also what the node itself falls back to when drained
rows cannot be batch-encoded: :func:`run_adjustment_task` rebuilds it from
the node's :class:`AdjustmentTask`, under whichever join strategy the task
names.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.columnar.runtime import forced_python, numpy_available
from repro.engine.database import Database
from repro.engine.executor import AdjustmentNode, ColumnarAdjustmentNode, run_adjustment_task
from repro.engine.expressions import Column, Comparison
from repro.engine.optimizer.settings import Settings
from repro.engine.table import Table
from repro.engine.temporal_plans import align_plan, normalize_plan, scan
from repro.obs import trace as obs_trace
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

#: (shape, join strategy) pairs the row pipeline can run: the interval
#: strategies need ALIGN's overlap bounds, hash and merge need key pairs.
JOIN_STRATEGIES = [
    ("align-keyed", "hash"),
    ("align-keyed", "merge"),
    ("align-keyed", "nestloop"),
    ("align-keyed", "probe"),
    ("align-keyed", "sweep"),
    ("align-unkeyed", "nestloop"),
    ("align-unkeyed", "probe"),
    ("align-unkeyed", "sweep"),
    ("normalize-keyed", "hash"),
    ("normalize-keyed", "merge"),
    ("normalize-keyed", "nestloop"),
    ("normalize-unkeyed", "nestloop"),
]


def _kernel_node(database, shape):
    physical = database.plan(_shape_plan(database, shape), COLUMNAR)
    assert isinstance(physical, ColumnarAdjustmentNode)
    return physical


class TestRunAdjustmentTask:
    """The row pipeline rebuilt from a kernel node's task is the same function."""

    @pytest.mark.parametrize("shape, strategy", JOIN_STRATEGIES)
    def test_every_join_strategy_rebuilds_the_same_rows(self, shape, strategy):
        left, right = generate_random(config=SyntheticConfig(size=80, categories=6, seed=4))
        database = Database()
        database.register_relation("l", left)
        database.register_relation("r", right)
        node = _kernel_node(database, shape)
        planned = [s for sh, s in JOIN_STRATEGIES if sh == shape]
        assert node.task.join_strategy in planned
        task = replace(node.task, join_strategy=strategy)
        rebuilt = run_adjustment_task(task, list(node.left), list(node.right))
        assert rebuilt == node.execute()
        assert rebuilt == database.execute(_shape_plan(database, shape), ROW).rows

    @pytest.mark.parametrize("shape", ["align-keyed", "normalize-keyed"])
    def test_empty_reference_leaves_every_argument_row_whole(self, shape):
        argument = [("a", 0, 10), ("b", 3, 7)]
        database = _plain_database(argument, [])
        node = _kernel_node(database, shape)
        assert run_adjustment_task(node.task, list(node.left), []) == argument
        assert node.execute() == argument

    @pytest.mark.parametrize("shape", ["align-keyed", "normalize-keyed"])
    def test_empty_argument_yields_nothing(self, shape):
        database = _plain_database([], [("a", 0, 10)])
        node = _kernel_node(database, shape)
        assert run_adjustment_task(node.task, [], list(node.right)) == []
        assert node.execute() == []


class TestRowFallback:
    """Rows the kernels cannot encode re-run the row pipeline, same result."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_fractional_bounds_fall_back_to_the_row_pipeline(self, shape):
        database = _plain_database(
            [("a", 0, 10), ("b", 1.5, 3.5), ("c", 4, 6)],
            [("a", 2, 5), ("b", 2, 3), ("c", 5, 9)],
        )
        node = _kernel_node(database, shape)
        with obs_trace.collect(node) as trace:
            rows = node.execute()
        assert trace.span_for(node).attributes["executed"] == "row-fallback"
        assert rows == database.execute(_shape_plan(database, shape), ROW).rows
        # The fractional row is adjusted, not dropped: it keeps its start.
        assert any(row[0] == "b" and row[1] == 1.5 for row in rows)
