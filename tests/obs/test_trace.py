"""Per-query operator tracing: span trees, the executor hook, the knobs.

The structural contract under test: a :class:`~repro.obs.trace.QueryTrace`'s
span tree mirrors ``explain()`` line-for-line on *every* physical strategy
the planner can emit — the row plan under each join strategy, and the
columnar batch — and when no trace is active the executor takes the
untouched fast path (no trace object, no ``last_trace`` mutation).
"""

from __future__ import annotations

import pytest

from repro.columnar.runtime import numpy_available
from repro.engine.database import Database
from repro.engine.executor.joins import HashJoinNode, MergeJoinNode, NestedLoopJoinNode
from repro.engine.expressions import And, Column, Comparison
from repro.engine.optimizer.settings import Settings
from repro.engine.temporal_plans import align_plan, scan
from repro.obs import trace as obs_trace
from repro.workloads.synthetic import SyntheticConfig, generate_random

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="NumPy not installed")

#: The row pipeline (the Fig. 12(b) reference plan).
ROW = Settings(enable_columnar=False)

#: The settings that plan each join strategy in the row pipeline.
STRATEGIES = {
    "hash": ROW,
    "merge": ROW.copy(enable_hashjoin=False),
    "nestloop": ROW.copy(enable_hashjoin=False, enable_mergejoin=False),
    "columnar": Settings(),
}

#: Join node class the row plan of each strategy must contain.
ROW_JOINS = {
    "hash": HashJoinNode,
    "merge": MergeJoinNode,
    "nestloop": NestedLoopJoinNode,
}


def _database(size=120):
    left, right = generate_random(
        config=SyntheticConfig(size=size, categories=8, seed=11)
    )
    database = Database()
    database.register_relation("l", left)
    database.register_relation("r", right)
    return database


def _plan(database):
    return align_plan(
        scan(database, "l", "l"),
        scan(database, "r", "r"),
        Comparison("=", Column("l.cat"), Column("r.cat")),
    )


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


def _physical(database, strategy):
    physical = database.plan(_plan(database), STRATEGIES[strategy])
    if strategy in ROW_JOINS:
        assert any(isinstance(n, ROW_JOINS[strategy]) for n in _walk(physical)), (
            physical.explain()
        )
    return physical


class TestSpanTreeMatchesExplain:
    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_span_tree_mirrors_the_plan_tree(self, strategy):
        database = _database()
        physical = _physical(database, strategy)
        explain_lines = physical.explain().splitlines()
        with obs_trace.collect(physical) as trace:
            rows = physical.execute()
        assert rows
        rendered = trace.root_span.render().splitlines()
        # Same number of lines, and every span line is its explain line plus
        # an actuals suffix — shape, indentation and labels all match.
        assert len(rendered) == len(explain_lines)
        for span_line, explain_line in zip(rendered, explain_lines):
            assert span_line.startswith(explain_line + " "), (
                span_line,
                explain_line,
            )
        assert trace.root_span.executed
        assert trace.root_span.rows_out == len(rows)
        assert trace.root_span.loops == 1
        # spans() is explain (pre-order) order.
        assert [s.label for s in trace.spans()] == [
            line.strip().rsplit("  (rows=", 1)[0] for line in explain_lines
        ]

    @needs_numpy
    @pytest.mark.parametrize("kind", ["align", "normalize"])
    def test_columnar_input_is_a_span_fact_with_bypassed_scans_unexecuted(self, kind):
        # Over registered relations the columnar batch reads cached
        # frames and never pulls its children, and EXPLAIN ANALYZE must
        # render that instead of inventing zeros; over plain tables it drains
        # them.  One plan text, two honest traces, both line-for-line the
        # EXPLAIN tree.
        from repro.engine.table import Table
        from repro.engine.temporal_plans import normalize_plan

        def build(database):
            left, right = scan(database, "l", "l"), scan(database, "r", "r")
            logical = _plan(database) if kind == "align" else normalize_plan(left, right, ["cat"])
            return database.plan(logical, STRATEGIES["columnar"])

        backed = _database()
        plain = Database()
        for name in ("l", "r"):
            snapshot = backed.get_table(name)
            plain.register_table(Table(name, snapshot.columns, snapshot.rows))

        rendered = {}
        for source, database in (("frame", backed), ("rows", plain)):
            physical = build(database)
            explain_lines = physical.explain().splitlines()
            with obs_trace.collect(physical) as trace:
                rendered[source] = physical.execute()
            lines = trace.root_span.render().splitlines()
            assert len(lines) == len(explain_lines)
            for span_line, explain_line in zip(lines, explain_lines):
                assert span_line.startswith(explain_line + " ")
            assert trace.root_span.attributes["input"] == source
            assert f"executed=numpy input={source})" in lines[0]
            below = trace.spans()[1:]
            if source == "frame":
                assert below and not any(span.executed for span in below)
                assert all("(never executed)" in line for line in lines[1:])
            else:
                # (NORMALIZE's two split-point projections share one scan
                # node, hence one span: only the direct inputs are asserted.)
                assert all(span.executed for span in trace.root_span.children)
        assert rendered["frame"] == rendered["rows"]
        assert build(backed).explain() == build(plain).explain()

    @pytest.mark.parametrize("source", ["frame", "rows"])
    def test_residual_theta_selectivity_is_a_span_fact(self, source):
        # A θ beyond its key equalities: EXPLAIN flags the residual, the span
        # says how it ran and how many candidate pairs it kept — still line
        # for line the EXPLAIN tree.  (Without NumPy the node runs the Python
        # kernels and the per-pair twin.)
        from repro.engine.executor import ColumnarAdjustmentNode
        from repro.engine.table import Table

        database = _database()
        if source == "rows":
            plain = Database()
            for name in ("l", "r"):
                snapshot = database.get_table(name)
                plain.register_table(Table(name, snapshot.columns, snapshot.rows))
            database = plain
        theta = And(
            Comparison("=", Column("l.cat"), Column("r.cat")),
            Comparison(">", Column("l.min_dur"), Column("r.min_dur")),
        )
        logical = align_plan(scan(database, "l", "l"), scan(database, "r", "r"), theta)
        physical = database.plan(logical, STRATEGIES["columnar"])
        assert isinstance(physical, ColumnarAdjustmentNode)
        explain_lines = physical.explain().splitlines()
        assert explain_lines[0].startswith("ColumnarAdjustment(align, keys=1, residual)  (")
        with obs_trace.collect(physical) as trace:
            rows = physical.execute()
        lines = trace.root_span.render().splitlines()
        assert len(lines) == len(explain_lines)
        for span_line, explain_line in zip(lines, explain_lines):
            assert span_line.startswith(explain_line + " ")
        facts = trace.root_span.attributes
        numpy_ran = numpy_available()
        assert facts["input"] == ("frame" if numpy_ran and source == "frame" else "rows")
        assert facts["residual"] == ("numpy" if numpy_ran else "pairs")
        assert 0 < facts["kept"] < facts["pairs"]
        assert f"residual={facts['residual']} pairs={facts['pairs']} kept={facts['kept']})" in lines[0]
        assert rows == database.execute(logical, ROW).rows

    def test_no_residual_means_no_residual_facts(self):
        database = _database()
        physical = database.plan(_plan(database), STRATEGIES["columnar"])
        assert "residual" not in physical.explain()
        with obs_trace.collect(physical) as trace:
            physical.execute()
        assert "residual" not in trace.render()


class TestDisabledPath:
    def test_no_active_trace_means_no_collection(self):
        database = _database(size=40)
        physical = database.plan(_plan(database), ROW)
        assert obs_trace.active_trace() is None
        rows = physical.execute()
        assert rows  # plain execution, nothing recorded anywhere
        assert obs_trace.active_trace() is None

    def test_database_execute_does_not_trace_by_default(self):
        database = _database(size=40)
        assert not obs_trace.tracing_enabled()
        database.execute(_plan(database))
        assert database.last_trace() is None

    def test_set_tracing_makes_every_query_traced(self):
        database = _database(size=40)
        obs_trace.set_tracing(True)
        try:
            table = database.execute(_plan(database))
        finally:
            obs_trace.set_tracing(False)
        trace = database.last_trace()
        assert trace is not None
        assert trace.root_span.rows_out == len(table.rows)
        assert "actual time=" in trace.render()
        # Back off: the next query must not disturb the captured trace.
        database.execute(_plan(database))
        assert database.last_trace() is trace

    def test_annotate_is_a_noop_without_an_active_trace(self):
        sentinel = object()
        obs_trace.annotate(sentinel, executed="nope")  # must not raise

    def test_env_flag_parsing(self):
        assert obs_trace._env_flag("REPRO_NO_SUCH_FLAG") is False


class TestNestedTraces:
    def test_traces_stack_per_thread(self):
        database = _database(size=40)
        physical = database.plan(_plan(database), ROW)
        with obs_trace.collect(physical) as outer:
            inner_physical = database.plan(_plan(database), ROW)
            with obs_trace.collect(inner_physical) as inner:
                assert obs_trace.active_trace() is inner
                inner_physical.execute()
            assert obs_trace.active_trace() is outer
            physical.execute()
        assert obs_trace.active_trace() is None
        assert outer.root_span.executed and inner.root_span.executed

    def test_foreign_nodes_pass_through_uninstrumented(self):
        # A node from some other plan (e.g. a view recompute running inside
        # a traced query) is not in this trace's span map: instrument() must
        # hand back the iterator untouched instead of recording garbage.
        database = _database(size=40)
        physical = database.plan(_plan(database), ROW)
        other = database.plan(_plan(database), ROW)
        with obs_trace.collect(physical) as trace:
            rows = other.execute()
        assert rows
        assert trace.span_for(other) is None
        assert not trace.root_span.executed


class TestRendering:
    def test_render_includes_total_and_summary_is_json_able(self):
        import json

        database = _database(size=40)
        physical = database.plan(_plan(database), ROW)
        with obs_trace.collect(physical, sql="SELECT 1") as trace:
            physical.execute()
        text = trace.render()
        assert "Execution time:" in text
        assert trace.sql == "SELECT 1"
        summary = trace.summary()
        assert summary["root"]["operator"] == physical.describe()
        json.dumps(summary)

    def test_unexecuted_span_renders_never_executed(self):
        database = _database(size=40)
        physical = database.plan(_plan(database), ROW)
        trace = obs_trace.QueryTrace(physical)
        assert "(never executed)" in trace.root_span.render()
