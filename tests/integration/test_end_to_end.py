"""End-to-end integration: SQL ↔ engine ↔ native algebra ↔ baselines on one workload."""

import pytest

from repro import TemporalAlgebra, count, predicates
from repro.baselines import sql_outer_join
from repro.core import reduction
from repro.engine.database import Database
from repro.engine.expressions import Column, Comparison
from repro.engine.optimizer.settings import Settings
from repro.engine.temporal_plans import KernelTemporalAlgebra
from repro.sql import Connection
from repro.workloads.incumben import IncumbenConfig, generate_incumben


@pytest.fixture(scope="module")
def assignments():
    return generate_incumben(config=IncumbenConfig(size=150, distinct_positions=25, seed=77))


class TestThreeImplementationsAgree:
    """Native reduction, engine plans and SQL produce the same relations."""

    def test_temporal_join_three_ways(self, assignments):
        theta = predicates.attr_eq("pcn")
        native = reduction.temporal_join(
            assignments, assignments, theta,
            left_equi_attributes=["pcn"], right_equi_attributes=["pcn"],
        )

        kernel = KernelTemporalAlgebra()
        engine = kernel.join(
            assignments, assignments, Comparison("=", Column("__l.pcn"), Column("__r.pcn"))
        )

        connection = Connection(Database())
        connection.register_relation("a", assignments)
        sql = connection.query_relation(
            "SELECT ABSORB l.ssn, l.pcn, r.ssn, r.pcn, l.ts, l.te "
            "FROM (a ALIGN a ON a.pcn = a.pcn) l JOIN (a ALIGN a ON a.pcn = a.pcn) r "
            "ON l.pcn = r.pcn AND l.ts = r.ts AND l.te = r.te"
        )

        native_set = {(t.values, t.interval) for t in native}
        engine_set = {(t.values, t.interval) for t in engine}
        sql_set = {(t.values, t.interval) for t in sql}
        assert native_set == engine_set == sql_set

    def test_normalization_three_ways(self, assignments):
        native = reduction.temporal_projection(assignments, ["ssn"])

        kernel = KernelTemporalAlgebra()
        engine = kernel.projection(assignments, ["ssn"])

        connection = Connection(Database())
        connection.register_relation("a", assignments)
        sql = connection.query_relation(
            "SELECT DISTINCT ssn, ts, te FROM (a x NORMALIZE a y USING(ssn)) n"
        )

        assert {(t.values, t.interval) for t in native} == \
            {(t.values_of(["ssn"]), t.interval) for t in engine} == \
            {(t.values, t.interval) for t in sql}

    def test_outer_join_against_baseline(self, assignments):
        theta = predicates.attr_eq("pcn")
        native = reduction.temporal_left_outer_join(
            assignments, assignments, theta,
            left_equi_attributes=["pcn"], right_equi_attributes=["pcn"],
        )
        baseline = sql_outer_join(assignments, assignments, theta, kind="left",
                                  equi_attributes=["pcn"])
        assert native.as_set() == baseline.as_set()


class TestJoinStrategySettingsEndToEnd:
    def test_normalization_identical_under_all_settings(self, assignments):
        # The join switches act on the Fig. 12(b) row pipeline.
        row = Settings(enable_columnar=False)
        results = []
        for settings in (row, row.copy(enable_mergejoin=False),
                         row.copy(enable_mergejoin=False, enable_hashjoin=False), Settings()):
            kernel = KernelTemporalAlgebra(settings=settings)
            normalized = kernel.normalize(assignments, assignments, ["ssn"])
            results.append({(t.values, t.interval) for t in normalized})
        assert results[0] == results[1] == results[2] == results[3]


class TestApplicationScenario:
    def test_headcount_report(self, assignments):
        algebra = TemporalAlgebra()
        headcount = algebra.aggregate(assignments, ["pcn"], [count(name="n")])
        assert headcount.is_duplicate_free()
        # Snapshot check at every active point against a manual count.
        for point in assignments.active_points()[:50]:
            alive = [t for t in assignments if t.valid_at(point)]
            expected = {}
            for t in alive:
                expected[t.value("pcn")] = expected.get(t.value("pcn"), 0) + 1
            actual = {row[0]: row[1] for row in headcount.timeslice(point)}
            assert actual == expected

    def test_sql_report_roundtrip(self, assignments):
        connection = Connection(Database())
        connection.register_relation("a", assignments)
        table = connection.execute(
            "SELECT pcn, COUNT(*) AS n, ts, te FROM (a x NORMALIZE a y USING(pcn)) g "
            "GROUP BY pcn, ts, te ORDER BY pcn, ts"
        )
        assert len(table) > 0
        assert table.columns == ("pcn", "n", "ts", "te")
