"""Interval statistics: cached-array reuse and cache neutrality."""

from __future__ import annotations

from repro.columnar.encoding import encode_relation
from repro.engine.database import Database
from repro.engine.statistics import (
    TableStatistics,
    interval_statistics_from_endpoints,
    relation_interval_statistics,
)
from repro.views.view import reference_index
from repro.workloads.synthetic import SyntheticConfig, generate_random


def _registered():
    left, _ = generate_random(config=SyntheticConfig(size=80, categories=8, seed=21))
    database = Database()
    database.register_relation("l", left)
    return database, left, database.get_table("l")


class TestEndpointStatistics:
    def test_from_endpoints_matches_scan(self):
        stats = interval_statistics_from_endpoints([3, 0, 5], [4, 7, 5])
        assert stats.row_count == 3
        assert stats.min_start == 0
        assert stats.max_end == 7
        assert stats.mean_duration == (1 + 7 + 0) / 3

    def test_empty_input_yields_none(self):
        assert interval_statistics_from_endpoints([], []) is None

    def test_table_statistics_use_the_backing_relation(self):
        _, relation, table = _registered()
        stats = TableStatistics(table).interval_statistics("ts", "te")
        expected = relation_interval_statistics(relation)
        assert stats == expected

    def test_relation_statistics_reuse_cached_columnar_arrays(self):
        _, relation, _ = _registered()
        scanned = relation_interval_statistics(relation)
        encode_relation(relation, ("cat",))  # populate the columnar cache
        cached = relation_interval_statistics(relation)
        assert cached == scanned


class TestStatisticsAreCacheNeutral:
    """Regression: collecting statistics must not build or drop derived caches."""

    def test_no_cache_entries_created_by_statistics(self):
        _, relation, table = _registered()
        assert relation.peek_derived(("columnar", "endpoints", "np")) is None
        TableStatistics(table).interval_statistics("ts", "te")
        # Still nothing cached: the scan path never populates `derived`.
        for backend in ("np", "py"):
            assert relation.peek_derived(("columnar", "endpoints", backend)) is None
        assert relation.peek_derived(("interval_index", ())) is None

    def test_existing_caches_survive_statistics(self):
        _, relation, table = _registered()
        index = reference_index(relation, ())
        frame = encode_relation(relation, ("cat",))
        TableStatistics(table).interval_statistics("ts", "te")
        # Identity-preserved: statistics neither rebuilt nor invalidated them.
        assert reference_index(relation, ()) is index
        assert encode_relation(relation, ("cat",)).starts is frame.starts

    def test_planner_statistics_are_cache_neutral(self):
        from repro.engine.expressions import Column, Comparison
        from repro.engine.temporal_plans import align_plan, scan

        database, relation, _ = _registered()
        database.register_relation("r", generate_random(
            config=SyntheticConfig(size=80, categories=8, seed=22))[0])
        plan = align_plan(
            scan(database, "l", "l"),
            scan(database, "r", "r"),
            Comparison("=", Column("l.cat"), Column("r.cat")),
        )
        frame = encode_relation(relation, ("cat",))
        database.plan(plan)  # planning collects interval statistics
        assert encode_relation(relation, ("cat",)).starts is frame.starts
