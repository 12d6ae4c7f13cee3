"""Planning and execution of columnar adjustment plans."""

from __future__ import annotations

import pytest

from repro.columnar.runtime import forced_python, numpy_available
from repro.engine.database import Database
from repro.engine.executor import AdjustmentNode, ColumnarAdjustmentNode
from repro.engine.expressions import And, Column, Comparison, PythonPredicate
from repro.engine.optimizer.settings import Settings
from repro.engine.temporal_plans import align_plan, normalize_plan, scan
from repro.obs import trace as obs_trace
from repro.relation.tuple import NULL
from repro.workloads.synthetic import SyntheticConfig, generate_random

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="NumPy not installed")

#: Plain settings plan the ``ColumnarAdjustment`` node; the switch off plans
#: the Fig. 12(b) row pipeline every result is compared against.
COLUMNAR = Settings()
ROW = Settings(enable_columnar=False)


def _database(size=300, categories=20, seed=5):
    left, right = generate_random(config=SyntheticConfig(size=size, categories=categories, seed=seed))
    database = Database()
    database.register_relation("l", left)
    database.register_relation("r", right)
    return database


def _align(database, condition="equi"):
    if condition == "equi":
        expr = Comparison("=", Column("l.cat"), Column("r.cat"))
    elif condition == "opaque":
        expr = PythonPredicate(lambda env: True)
    else:
        expr = None
    return align_plan(scan(database, "l", "l"), scan(database, "r", "r"), expr)


class TestPlannerDispatch:
    def test_equality_theta_dispatches_columnar(self):
        database = _database()
        physical = database.plan(_align(database), COLUMNAR)
        assert isinstance(physical, ColumnarAdjustmentNode)
        assert "ColumnarAdjustment(align" in physical.explain()

    def test_absent_theta_dispatches_columnar(self):
        database = _database()
        physical = database.plan(_align(database, condition=None), COLUMNAR)
        assert isinstance(physical, ColumnarAdjustmentNode)

    def test_normalize_dispatches_columnar(self):
        database = _database()
        plan = normalize_plan(scan(database, "l", "l"), scan(database, "r", "r"), ["cat"])
        physical = database.plan(plan, COLUMNAR)
        assert isinstance(physical, ColumnarAdjustmentNode)
        assert "ColumnarAdjustment(normalize" in physical.explain()

    def test_opaque_theta_plans_columnar_with_a_residual(self):
        # A PythonPredicate compiles to no mask, but runs per candidate pair
        # inside the batch: no θ forces the row pipeline.
        database = _database()
        physical = database.plan(_align(database, condition="opaque"), COLUMNAR)
        assert isinstance(physical, ColumnarAdjustmentNode)
        assert physical.task.residual is not None
        assert physical.describe() == "ColumnarAdjustment(align, keys=0, residual)"

    def test_disabled_switch_stays_in_row_mode(self):
        database = _database()
        settings = COLUMNAR.copy(enable_columnar=False)
        physical = database.plan(_align(database), settings)
        assert not isinstance(physical, ColumnarAdjustmentNode)
        assert "columnar=off" in settings.describe()

    def test_describe_names_every_switch(self):
        settings = COLUMNAR.copy(enable_mergejoin=False)
        assert settings.describe() == "hashjoin=on, mergejoin=off, columnar=on"


class TestColumnarExecution:
    def test_align_matches_row_pipeline(self):
        database = _database()
        plan = _align(database)
        assert sorted(database.execute(plan, ROW).rows) == sorted(
            database.execute(plan, COLUMNAR).rows
        )

    def test_normalize_matches_row_pipeline(self):
        database = _database()
        plan = normalize_plan(scan(database, "l", "l"), scan(database, "r", "r"), ["cat"])
        assert sorted(database.execute(plan, ROW).rows) == sorted(
            database.execute(plan, COLUMNAR).rows
        )

    def test_duplicate_left_rows_collapse_like_the_sort_group(self):
        # The serial pipeline's partition sort makes two identical argument
        # rows one sweep group; the columnar batch must collapse them too.
        database = _database(size=50)
        database.insert_rows("l", [(("C0001", 1, 5), (0, 10)), (("C0001", 1, 5), (0, 10))])
        plan = _align(database)
        assert sorted(database.execute(plan, ROW).rows) == sorted(
            database.execute(plan, COLUMNAR).rows
        )

    @pytest.mark.parametrize("use_python_kernels", [False, True])
    def test_degenerate_intervals_match_row_pipeline(self, use_python_kernels):
        # Regression (review finding): unmatched empty-interval argument rows
        # must pass through exactly like the serial pipeline emits them —
        # the edge family the relation-level property test covers, driven
        # through the engine plans.
        from repro.engine.table import Table

        database = Database()
        database.register_table(
            Table(
                "l",
                ["cat", "ts", "te"],
                [
                    ("a", 5, 5),   # unmatched degenerate (dangling)
                    ("a", 0, 10),  # matched, split around the reference
                    ("b", 3, 3),   # degenerate, matched by a straddler
                    ("b", 7, 7),   # degenerate, unmatched (meets at a point)
                    ("c", 2, 2),   # degenerate, key matches nothing
                ],
            )
        )
        database.register_table(
            Table(
                "r",
                ["cat", "ts", "te"],
                [("a", 2, 4), ("a", 4, 4), ("b", 1, 7), ("b", 7, 9)],
            )
        )
        for plan in (
            _align(database),
            normalize_plan(scan(database, "l", "l"), scan(database, "r", "r"), ["cat"]),
        ):
            expected = sorted(database.execute(plan, ROW).rows)
            physical = database.plan(plan, COLUMNAR)
            assert isinstance(physical, ColumnarAdjustmentNode)
            if use_python_kernels:
                with forced_python():
                    actual = sorted(physical.execute())
            else:
                actual = sorted(physical.execute())
            assert actual == expected

    @needs_numpy
    def test_trace_after_run_shows_kernel_backend(self):
        database = _database()
        physical = database.plan(_align(database), COLUMNAR)
        assert "executed=" not in physical.explain()
        with obs_trace.collect(physical) as trace:
            list(physical)
        assert trace.span_for(physical).attributes["executed"] == "numpy"
        assert "executed=numpy" in trace.render()
        # The static plan text never mutates — annotations live on the trace.
        assert "executed=" not in physical.explain()

    def test_unencodable_bounds_run_the_python_kernels(self):
        from repro.engine.table import Table

        # String and fractional bounds: NumPy cannot hold them, the Python
        # twins take them as they are.  An empty reference leaves every
        # argument row dangling, whole.
        for reference, odd in (([("a", 2, 5)], ("b", "x", "y")), ([], ("b", 1.5, 3.5))):
            database = Database()
            database.register_table(Table("l", ["cat", "ts", "te"], [("a", 0, 10), odd]))
            database.register_table(Table("r", ["cat", "ts", "te"], reference))
            plan = align_plan(
                scan(database, "l", "l"),
                scan(database, "r", "r"),
                Comparison("=", Column("l.cat"), Column("r.cat")),
            )
            physical = database.plan(plan, COLUMNAR)
            assert isinstance(physical, ColumnarAdjustmentNode)
            with obs_trace.collect(physical) as trace:
                rows = sorted(physical.execute())
            assert trace.span_for(physical).attributes["executed"] == "python"
            assert rows == sorted(database.execute(plan, ROW).rows)
        assert rows == [("a", 0, 10), odd]

    def test_pure_python_kernels_match_row_pipeline(self):
        # Forced fallback at execution time: the node still runs, through the
        # bisect kernels, with identical output.
        database = _database(size=120)
        plan = _align(database)
        physical = database.plan(plan, COLUMNAR)
        with forced_python():
            with obs_trace.collect(physical) as trace:
                columnar_rows = sorted(physical.execute())
            assert trace.span_for(physical).attributes["executed"] == "python"
        assert columnar_rows == sorted(database.execute(plan, ROW).rows)


# -- the two array sources ---------------------------------------------------------


def _columnar_nodes(physical):
    found = [physical] if isinstance(physical, ColumnarAdjustmentNode) else []
    for child in physical.children:
        found.extend(_columnar_nodes(child))
    return found


def _traced(physical):
    with obs_trace.collect(physical) as trace:
        rows = physical.execute()
    inputs = [trace.span_for(node).attributes.get("input") for node in _columnar_nodes(physical)]
    return rows, inputs, trace


def _derived_counts():
    from repro.obs.metrics import REGISTRY

    labels = REGISTRY.snapshot().get("relation.derived", {}).get("labels", {})
    return labels.get("hit", 0), labels.get("miss", 0)


def _sql_database(size=400, categories=12, seed=3):
    from repro.sql.interface import Connection

    left, right = generate_random(
        config=SyntheticConfig(size=size, categories=categories, seed=seed)
    )
    connection = Connection(Database())
    connection.register_relation("r", left)
    connection.register_relation("s", right)
    return connection


#: The four keyed shapes of ``perf/``'s ``analytic_keyed`` (aliased and
#: unaliased scans, a self-normalization, both adjustments under one join)
#: and the unkeyed NORMALIZE of ``analytic_theta``.
KEYED_SQL = {
    "align": "SELECT * FROM (r ALIGN s ON r.cat = s.cat) x",
    "normalize-aliased": "SELECT * FROM (r r1 NORMALIZE s s1 USING(cat)) x",
    "outer-join": (
        "SELECT ABSORB r1.cat, r1.min_dur, r1.max_dur, s1.cat AS s_cat, s1.min_dur AS s_min, "
        "s1.max_dur AS s_max, r1.ts, r1.te "
        "FROM (r ALIGN s ON r.cat = s.cat) r1 LEFT OUTER JOIN (s ALIGN r ON s.cat = r.cat) s1 "
        "ON r1.cat = s1.cat AND r1.ts = s1.ts AND r1.te = s1.te"
    ),
    "self-normalize-aggregate": (
        "SELECT cat, COUNT(*) c, ts, te FROM (r r1 NORMALIZE r r2 USING(cat)) x "
        "GROUP BY cat, ts, te"
    ),
    "normalize-unkeyed": "SELECT * FROM (r r1 NORMALIZE s s1 USING()) x",
    "two-keys": "SELECT * FROM (r ALIGN s ON r.cat = s.cat AND r.min_dur = s.min_dur) x",
}

FILTERED_CTE = (
    "WITH a AS (SELECT * FROM r WHERE cat = 'C0001') "
    "SELECT * FROM (a ALIGN s ON a.cat = s.cat) x"
)


class TestFrameInput:
    """Bare scans of registered relations read the relations' cached
    frames; everything else is drained.  Same kernel, same rows, same order.
    (Frames are NumPy arrays: without NumPy every input is drained.)"""

    @needs_numpy
    @pytest.mark.parametrize("shape", sorted(KEYED_SQL))
    def test_frame_equals_drained_equals_row_pipeline_in_order(self, shape, monkeypatch):
        connection = _sql_database()
        database = connection.database
        logical = connection.logical_plan(KEYED_SQL[shape])
        static = database.plan(logical, COLUMNAR).explain()

        frame_rows, inputs, _ = _traced(database.plan(logical, COLUMNAR))
        assert inputs and set(inputs) == {"frame"}
        row_rows = database.execute(logical, ROW).rows
        assert frame_rows == row_rows

        monkeypatch.setattr(ColumnarAdjustmentNode, "_frame_arrays", lambda self: None)
        drained_rows, inputs, _ = _traced(database.plan(logical, COLUMNAR))
        assert set(inputs) == {"rows"}
        assert drained_rows == frame_rows
        # Which source ran is a trace fact; the static plan text never moves.
        assert database.plan(logical, COLUMNAR).explain() == static
        assert "input=" not in static

    @needs_numpy
    def test_bypassed_children_render_never_executed(self):
        connection = _sql_database()
        logical = connection.logical_plan(KEYED_SQL["normalize-aliased"])
        physical = connection.database.plan(logical, COLUMNAR)
        _, inputs, trace = _traced(physical)
        assert inputs == ["frame"]
        (node,) = _columnar_nodes(physical)
        below = [span for span in trace.span_for(node).walk()][1:]
        assert len(below) == 6  # scan, union, two projections over one scan each
        assert all(not span.executed for span in below)
        assert trace.render().count("(never executed)") == 6
        assert "executed=numpy input=frame" in trace.render()

    def test_filtered_cte_takes_the_row_input_and_builds_no_frame(self):
        # The read shape of ``served_mixed``: a selection under the argument.
        connection = _sql_database()
        database = connection.database
        logical = connection.logical_plan(FILTERED_CTE)
        rows, inputs, trace = _traced(database.plan(logical, COLUMNAR))
        assert inputs == ["rows"]
        assert rows == database.execute(logical, ROW).rows
        assert all(span.executed for span in trace.spans())
        for name in ("r", "s"):
            relation = database.get_relation(name)
            assert relation.peek_derived(("columnar", "endpoints", "np")) is None
            assert relation.peek_derived(("columnar", "row_order", "np")) is None

    @needs_numpy
    def test_second_execution_only_hits_the_relation_caches(self):
        connection = _sql_database()
        database = connection.database
        logical = connection.logical_plan(KEYED_SQL["align"])
        first = database.plan(logical, COLUMNAR).execute()
        hits, misses = _derived_counts()
        second = database.plan(logical, COLUMNAR).execute()
        later_hits, later_misses = _derived_counts()
        assert second == first
        assert later_misses == misses
        assert later_hits > hits

    def test_without_numpy_the_frame_input_declines(self):
        connection = _sql_database(size=120)
        database = connection.database
        logical = connection.logical_plan(KEYED_SQL["align"])
        physical = database.plan(logical, COLUMNAR)
        with forced_python():
            rows, inputs, trace = _traced(physical)
        assert inputs == ["rows"]
        (node,) = _columnar_nodes(physical)
        assert trace.span_for(node).attributes["executed"] == "python"
        assert rows == database.execute(logical, ROW).rows
        assert database.get_relation("r").peek_derived(("columnar", "endpoints", "py")) is None

    @needs_numpy
    def test_old_plan_over_a_mutated_relation_answers_the_live_relation(self):
        # A scan reads its relation when it executes, and so does the frame
        # input: a plan built before a mutation answers like a fresh plan.
        connection = _sql_database()
        database = connection.database
        logical = connection.logical_plan(KEYED_SQL["align"])
        old_plan = database.plan(logical, COLUMNAR)
        before = database.execute(logical, ROW).rows
        assert old_plan.execute() == before  # frames are now cached on r and s

        database.update_rows("r", {"cat": "C0001"}, predicate=lambda t: t["cat"] == "C0002")
        rows, inputs, _ = _traced(old_plan)
        assert inputs == ["frame"]
        fresh_rows, inputs, _ = _traced(database.plan(logical, COLUMNAR))
        assert inputs == ["frame"]
        assert rows == fresh_rows == database.execute(logical, ROW).rows
        assert rows != before

    def test_old_plan_after_a_reference_mutation_answers_the_live_relation(self):
        connection = _sql_database()
        database = connection.database
        logical = connection.logical_plan(KEYED_SQL["normalize-aliased"])
        old_plan = database.plan(logical, COLUMNAR)
        before = old_plan.execute()
        longest = max(database.get_relation("r"), key=lambda t: t.end - t.start)
        new_point = (longest.start + 1, longest.start + 2)  # strictly inside it
        database.insert_rows("s", [((longest["cat"], 1, 5), new_point)])
        rows, inputs, _ = _traced(old_plan)
        assert inputs == (["frame"] if numpy_available() else ["rows"])
        fresh = database.plan(logical, COLUMNAR).execute()
        assert rows == fresh == database.execute(logical, ROW).rows
        assert rows != before

    def test_keys_on_the_timestamp_columns_take_the_row_input(self):
        database = _database()
        plan = align_plan(
            scan(database, "l", "l"),
            scan(database, "r", "r"),
            Comparison("=", Column("l.ts"), Column("r.ts")),
        )
        physical = database.plan(plan, COLUMNAR)
        assert isinstance(physical, ColumnarAdjustmentNode)
        rows, inputs, _ = _traced(physical)
        assert inputs == ["rows"]
        assert rows == database.execute(plan, ROW).rows

    def test_other_boundary_columns_take_the_row_input(self):
        from repro.engine import plan as logical

        database = _database()
        plan = logical.Align(
            scan(database, "l", "l"),
            scan(database, "r", "r"),
            Comparison("=", Column("l.cat"), Column("r.cat")),
            left_start="l.min_dur",
            left_end="l.max_dur",
        )
        physical = database.plan(plan, COLUMNAR)
        assert isinstance(physical, ColumnarAdjustmentNode)
        rows, inputs, _ = _traced(physical)
        assert inputs == ["rows"]
        assert rows == database.execute(plan, ROW).rows

    def test_tables_without_a_relation_take_the_row_input(self):
        from repro.engine.table import Table

        database = Database()
        database.register_table(Table("l", ["cat", "ts", "te"], [("a", 0, 10), ("b", 3, 4)]))
        database.register_table(Table("r", ["cat", "ts", "te"], [("a", 2, 5)]))
        plan = _align(database)
        rows, inputs, _ = _traced(database.plan(plan, COLUMNAR))
        assert inputs == ["rows"]
        assert rows == database.execute(plan, ROW).rows

    def test_transaction_snapshots_are_relations_of_their_own(self):
        # In a transaction the planner sees a private copy of each relation
        # (own writes overlaid); its frames describe that copy, never the
        # committed relation.
        connection = _sql_database(size=150)
        database = connection.database
        session = database.session()
        committed = database.execute(connection.logical_plan(KEYED_SQL["align"]), ROW).rows
        session.execute("BEGIN")
        session.execute("DELETE FROM r WHERE cat = 'C0001'")
        inside = session.execute(KEYED_SQL["align"], settings=COLUMNAR).rows
        assert inside == session.execute(KEYED_SQL["align"], settings=ROW).rows
        assert inside != committed
        session.execute("ROLLBACK")
        assert session.execute(KEYED_SQL["align"], settings=COLUMNAR).rows == committed

    @needs_numpy
    def test_null_keys_on_both_sides_stay_dangling(self):
        # ω = ω is false in a θ: the two ω-keyed rows must not meet, although
        # the relations' dictionaries give them one shared code.
        from repro import Interval, Schema, TemporalRelation
        from repro.relation.tuple import NULL

        left = TemporalRelation(Schema(["cat", "n"]))
        right = TemporalRelation(Schema(["cat", "n"]))
        for cat, start, end in [(NULL, 0, 10), ("a", 0, 10), ("a", 0, 10), (7, 2, 2)]:
            left.insert((cat, 1), Interval(start, end))
        for cat, start, end in [(NULL, 3, 5), ("a", 4, 6), (NULL, 4, 4)]:
            right.insert((cat, 2), Interval(start, end))
        database = Database()
        database.register_relation("l", left)
        database.register_relation("r", right)
        for plan in (
            _align(database),
            normalize_plan(scan(database, "l", "l"), scan(database, "r", "r"), ["cat"]),
        ):
            rows, inputs, _ = _traced(database.plan(plan, COLUMNAR))
            assert inputs == ["frame"]
            assert rows == database.execute(plan, ROW).rows
            assert (NULL, 1, 0, 10) in rows


# -- a residual θ on the columnar path ----------------------------------------------

#: ``perf/``'s ``analytic_theta`` shapes: an equality key plus an inequality
#: (T1, read off cached frames), and a duration θ with no key over a
#: projected argument (T2, drained rows).
THETA_SQL = {
    "T1": "SELECT * FROM (r ALIGN s ON r.cat = s.cat AND r.min_dur < s.max_dur) x",
    "T2": (
        "WITH ru AS (SELECT ts us, te ue, * FROM r) SELECT * FROM "
        "(ru ALIGN s ON DUR(us, ue) BETWEEN s.min_dur AND s.max_dur) x"
    ),
}


def _theta_connection(size, family=generate_random, categories=12, seed=3):
    from repro.sql.interface import Connection

    left, right = family(config=SyntheticConfig(size=size, categories=categories, seed=seed))
    connection = Connection(Database())
    connection.register_relation("r", left)
    connection.register_relation("s", right)
    return connection


class TestResidualThetaPlans:
    """Default ``Settings()``: neither θ nor input size decides row vs column."""

    @pytest.mark.parametrize("shape", sorted(THETA_SQL))
    def test_theta_shapes_plan_columnar(self, shape):
        connection = _theta_connection(size=1_000)
        physical = connection.database.plan(connection.logical_plan(THETA_SQL[shape]))
        (node,) = _columnar_nodes(physical)
        assert node.task.residual is not None
        assert "ColumnarAdjustment(align, keys=" in physical.explain()
        assert ", residual)" in physical.explain()

    def test_small_inputs_with_a_large_join_go_columnar(self):
        # T2eq: an unkeyed group-construction join over 250 + 250 input rows
        # is estimated far above the inputs; the node carries the row
        # pipeline's estimate, rows and cost.
        from repro.workloads.synthetic import generate_equal

        connection = _theta_connection(size=250, family=generate_equal)
        database = connection.database
        logical = connection.logical_plan(THETA_SQL["T2"])
        (node,) = _columnar_nodes(database.plan(logical))
        input_rows = len(database.get_table("r")) + len(database.get_table("s"))
        (serial,) = [n for n in _walk(database.plan(logical, ROW)) if isinstance(n, AdjustmentNode)]
        assert node.estimated_rows == serial.estimated_rows > input_rows
        assert node.estimated_cost == serial.estimated_cost

    def test_keyed_explain_is_unchanged_without_a_residual(self):
        connection = _theta_connection(size=1_000)
        explain = connection.database.plan(connection.logical_plan(KEYED_SQL["align"])).explain()
        assert "residual" not in explain
        assert "ColumnarAdjustment(align, keys=1)  (" in explain


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


#: Keyed ALIGN, NORMALIZE and an ALIGN with a residual θ.
SMALL_SHAPES = {
    "align": KEYED_SQL["align"],
    "normalize": KEYED_SQL["normalize-aliased"],
    "residual": THETA_SQL["T1"],
}


class TestEverySizePlansTheKernelNode:
    """No crossover and no NumPy check: one plan at every input size."""

    @pytest.mark.parametrize("size", [0, 1, 8])
    @pytest.mark.parametrize("shape", sorted(SMALL_SHAPES))
    def test_small_inputs_plan_columnar_with_either_backend(self, shape, size):
        connection = _theta_connection(size=size)
        database = connection.database
        logical = connection.logical_plan(SMALL_SHAPES[shape])
        physical = database.plan(logical, Settings())
        with forced_python():
            python_physical = database.plan(logical, Settings())
        for plan in (physical, python_physical):
            assert len(_columnar_nodes(plan)) == 1
            assert not any(isinstance(n, AdjustmentNode) for n in _walk(plan))
        assert python_physical.explain() == physical.explain()

        expected = database.execute(logical, ROW).rows
        assert physical.execute() == expected
        with forced_python():
            assert python_physical.execute() == expected


class TestResidualThetaExecution:
    """Columnar ≡ row ``Adjustment`` as ordered lists, whichever evaluator ran."""

    def _run(self, connection, sql):
        database = connection.database
        logical = connection.logical_plan(sql)
        physical = database.plan(logical, COLUMNAR)
        (node,) = _columnar_nodes(physical)
        with obs_trace.collect(physical) as trace:
            rows = physical.execute()
        return rows, trace.span_for(node).attributes, database.execute(logical, ROW).rows

    @pytest.mark.parametrize("shape", sorted(THETA_SQL))
    def test_theta_shapes_equal_the_row_pipeline_in_order(self, shape):
        connection = _theta_connection(size=300)
        rows, facts, expected = self._run(connection, THETA_SQL[shape])
        assert rows == expected
        assert facts["residual"] == ("numpy" if numpy_available() else "pairs")
        assert facts["input"] == ("frame" if shape == "T1" and numpy_available() else "rows")
        assert 0 < facts["kept"] < facts["pairs"]

    @pytest.mark.parametrize("shape", sorted(THETA_SQL))
    def test_per_pair_twin_equals_the_mask(self, shape, monkeypatch):
        connection = _theta_connection(size=300)
        masked, _, expected = self._run(connection, THETA_SQL[shape])
        monkeypatch.setattr("repro.engine.expressions.compile_pair_mask", lambda *a: None)
        twin, facts, _ = self._run(connection, THETA_SQL[shape])
        assert facts["residual"] == "pairs"
        assert twin == masked == expected

    def test_python_kernels_use_the_per_pair_twin(self):
        connection = _theta_connection(size=200)
        with forced_python():
            rows, facts, expected = self._run(connection, THETA_SQL["T1"])
        assert (facts["executed"], facts["residual"]) == ("python", "pairs")
        assert rows == expected

    def test_opaque_theta_runs_per_pair(self):
        database = _database(size=150)
        plan = align_plan(
            scan(database, "l", "l"),
            scan(database, "r", "r"),
            PythonPredicate(lambda env: env["min_dur"] % 3 == 0),
        )
        physical = database.plan(plan, COLUMNAR)
        with obs_trace.collect(physical) as trace:
            rows = physical.execute()
        assert trace.span_for(physical).attributes["residual"] == "pairs"
        assert rows == database.execute(plan, ROW).rows

    def test_null_theta_operands_leave_rows_dangling(self):
        from repro.engine.table import Table

        database = Database()
        database.register_table(
            Table("l", ["cat", "n", "ts", "te"], [("a", 1, 0, 10), ("a", NULL, 0, 10), ("b", 5, 2, 4)])
        )
        database.register_table(
            Table("r", ["cat", "n", "ts", "te"], [("a", 3, 2, 5), ("a", NULL, 6, 8), ("b", 9, 0, 9)])
        )
        plan = align_plan(
            scan(database, "l", "l"),
            scan(database, "r", "r"),
            And(
                Comparison("=", Column("l.cat"), Column("r.cat")),
                Comparison("<", Column("l.n"), Column("r.n")),
            ),
        )
        physical = database.plan(plan, COLUMNAR)
        with obs_trace.collect(physical) as trace:
            rows = physical.execute()
        assert rows == database.execute(plan, ROW).rows
        assert ("a", NULL, 0, 10) in rows  # ω < anything is false: no group
        facts = trace.span_for(physical).attributes
        assert (facts["pairs"], facts["kept"]) == (5, 2)
