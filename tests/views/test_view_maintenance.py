"""Materialized view maintenance: incremental ≡ recompute, planner matching.

Every maintenance path is cross-checked against a from-scratch adjustment of
the mutated relations — the correctness bar is *exact* relation equality,
after every mutation of a mixed stream.
"""

from collections import Counter

import pytest

from repro import Interval, Schema, TemporalRelation
from repro.core.alignment import align_relation
from repro.core.normalization import normalize, self_normalize
from repro.engine.database import Database
from repro.engine.expressions import And, Column, Comparison
from repro.engine.optimizer import cost
from repro.engine.optimizer.settings import Settings
from repro.engine.temporal_plans import align_plan, normalize_plan, scan
from repro.relation.tuple import NULL
from repro.sql import Connection
from repro.views.catalog import ViewError, condition_fingerprint, residual_condition
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_disjoint,
    generate_equal,
    generate_random,
)

CONFIG = SyntheticConfig(size=40, categories=5, interval_length=12, time_span=200, seed=7)


@pytest.fixture
def database():
    left, right = generate_random(config=CONFIG)
    db = Database()
    db.register_relation("l", left)
    db.register_relation("r", right)
    return db


def equi_cat():
    return Comparison("=", Column("l.cat"), Column("r.cat"))


def scratch_align(db):
    return align_relation(
        db.relations["l"], db.relations["r"], equi_attributes=["cat"], strategy="sweep"
    )


MUTATIONS = [
    lambda db: db.insert_rows("l", [(("C0001", 3, 9), Interval(50, 120))]),
    lambda db: db.insert_rows("r", [(("C0002", 1, 4), Interval(10, 90))]),
    lambda db: db.delete_rows("l", predicate=lambda t: t["cat"] == "C0003"),
    lambda db: db.delete_rows("r", period=Interval(40, 80)),
    lambda db: db.update_rows("l", {"min_dur": 42}, period=Interval(0, 100)),
    lambda db: db.update_rows(
        "r", {"cat": "C0000"}, predicate=lambda t: t["cat"] == "C0004"
    ),
]


class TestAlignViewMaintenance:
    def test_initial_contents_match_scratch_alignment(self, database):
        view = database.views.create_align_view("v", "l", "r", condition=equi_cat())
        assert view.result() == scratch_align(database)
        assert view.status() == "fresh"

    @pytest.mark.parametrize("mutate", MUTATIONS, ids=[
        "insert-base", "insert-ref", "delete-base", "delete-ref-period",
        "update-base-period", "update-ref",
    ])
    def test_single_mutation_keeps_view_equal(self, database, mutate):
        view = database.views.create_align_view("v", "l", "r", condition=equi_cat())
        mutate(database)
        assert view.status() == "maintained"
        assert view.result() == scratch_align(database)

    def test_small_delta_batches_are_applied_incrementally(self, database):
        view = database.views.create_align_view("v", "l", "r", condition=equi_cat())
        database.insert_rows("l", [(("C0001", 3, 9), Interval(50, 120))])
        assert view.refresh() == "incremental"
        database.delete_rows("r", predicate=lambda t: t["cat"] == "C0002")
        assert view.refresh() == "incremental"
        assert view.result() == scratch_align(database)
        assert view.stats["incremental"] == 2

    def test_mixed_stream_stays_equal(self, database):
        view = database.views.create_align_view("v", "l", "r", condition=equi_cat())
        for mutate in MUTATIONS:
            mutate(database)
            assert view.result() == scratch_align(database)

    def test_large_delta_batch_falls_back_to_recompute(self, database):
        view = database.views.create_align_view("v", "l", "r", condition=equi_cat())
        recomputes = view.stats["recomputed"]
        # Rewrite essentially the whole base relation in one batch: the cost
        # model must prefer a recompute over chasing hundreds of deltas.
        database.update_rows("l", {"min_dur": 1})
        database.update_rows("r", {"max_dur": 99})
        assert view.refresh() == "recomputed"
        assert view.stats["recomputed"] == recomputes + 1
        assert view.result() == scratch_align(database)

    def test_truncated_changelog_forces_recompute(self, database):
        view = database.views.create_align_view("v", "l", "r", condition=equi_cat())
        database.insert_rows("l", [(("C0001", 1, 2), Interval(0, 10))])
        database.relations["l"].trim_changelog(database.relations["l"].version)
        assert view.refresh() == "recomputed"
        assert view.result() == scratch_align(database)


class TestNormalizeViewMaintenance:
    @pytest.mark.parametrize("generator", [generate_disjoint, generate_equal, generate_random],
                             ids=["disjoint", "equal", "random"])
    def test_all_families_under_mixed_stream(self, generator):
        left, right = generator(config=CONFIG)
        db = Database()
        db.register_relation("l", left)
        db.register_relation("r", right)
        view = db.views.create_normalize_view("v", "l", "r", attributes=["cat"])
        for mutate in MUTATIONS:
            mutate(db)
            assert view.result() == normalize(left, right, ["cat"])

    def test_empty_attribute_list_splits_against_everything(self, database):
        view = database.views.create_normalize_view("v", "l", "r", attributes=[])
        database.delete_rows("r", period=Interval(30, 60))
        assert view.result() == normalize(database.relations["l"], database.relations["r"])

    def test_self_normalization_view(self, database):
        view = database.views.create_normalize_view("v", "l", "l", attributes=["cat"])
        database.update_rows("l", {"min_dur": 5}, period=Interval(20, 70))
        assert view.result() == self_normalize(database.relations["l"], ["cat"])

    def test_shared_endpoint_survives_single_deletion(self):
        # Two reference tuples share endpoint 5; deleting one must keep the
        # split point alive (the endpoint multiset, not a set, is the state).
        db = Database()
        base = TemporalRelation(Schema(["k"]))
        base.insert(("x",), Interval(0, 10))
        ref = TemporalRelation(Schema(["k"]))
        ref.insert(("x",), Interval(2, 5))
        ref.insert(("x",), Interval(5, 8))
        db.register_relation("b", base)
        db.register_relation("s", ref)
        view = db.views.create_normalize_view("v", "b", "s", attributes=["k"])
        db.delete_rows("s", predicate=lambda t: t.interval == Interval(2, 5))
        assert view.result() == normalize(base, ref, ["k"])
        intervals = sorted(t.interval for t in view.result())
        assert intervals == [Interval(0, 5), Interval(5, 8), Interval(8, 10)]


class TestDownstreamOperators:
    def test_filter_and_projection_fold_into_maintenance(self, database):
        conn = Connection(database)
        conn.execute(
            "CREATE MATERIALIZED VIEW busy AS "
            "SELECT cat, ts, te FROM (l ALIGN r ON l.cat = r.cat) a WHERE a.te - a.ts > 3"
        )
        view = database.views.get("busy")
        assert view.kind == "align"
        database.insert_rows("l", [(("C0002", 1, 1), Interval(0, 200))])
        expected = scratch_align(database)
        expected = expected.filter(lambda t: t.end - t.start > 3)
        projected = TemporalRelation(Schema(["cat"]))
        for t in expected:
            projected.add(t.project(["cat"], schema=projected.schema))
        assert view.result() == projected
        assert view.stats["incremental"] >= 1

    def test_aggregation_falls_back_to_recompute_view(self, database):
        conn = Connection(database)
        status = conn.execute(
            "CREATE MATERIALIZED VIEW agg AS "
            "SELECT cat, COUNT(*) AS c FROM l GROUP BY cat"
        )
        assert "recompute" in status.rows[0][0]
        before = dict(conn.execute("SELECT * FROM agg").rows)
        database.insert_rows("l", [(("C0000", 1, 2), Interval(0, 5))])
        after = dict(conn.execute("SELECT * FROM agg").rows)
        assert after["C0000"] == before["C0000"] + 1


class TestPlannerSubstitution:
    def test_align_plan_substitutes_matching_view(self, database):
        database.views.create_align_view("v", "l", "r", condition=equi_cat())
        plan = align_plan(scan(database, "l", "l"), scan(database, "r", "r"), equi_cat())
        explained = database.explain(plan)
        assert "ViewScan(v" in explained
        assert "Adjustment" not in explained
        # and the substituted plan produces the adjusted relation (the plan's
        # columns stay alias-qualified, so compare value/interval sets)
        table = database.execute(plan)
        produced = table.to_relation(start_column="l.ts", end_column="l.te")
        assert produced.as_set() == scratch_align(database).as_set()

    def test_alias_renaming_does_not_break_matching(self, database):
        database.views.create_align_view("v", "l", "r", condition=equi_cat())
        other_alias = Comparison("=", Column("x.cat"), Column("y.cat"))
        plan = align_plan(scan(database, "l", "x"), scan(database, "r", "y"), other_alias)
        assert "ViewScan(v" in database.explain(plan)

    def test_normalize_plan_substitutes_matching_view(self, database):
        database.views.create_normalize_view("v", "l", "r", attributes=["cat"])
        plan = normalize_plan(scan(database, "l", "l"), scan(database, "r", "r"), ["cat"])
        assert "ViewScan(v" in database.explain(plan)

    def test_dropping_the_view_restores_the_adjustment_plan(self, database):
        database.views.create_align_view("v", "l", "r", condition=equi_cat())
        plan = align_plan(scan(database, "l", "l"), scan(database, "r", "r"), equi_cat())
        substituted = database.execute(plan).rows
        assert "ViewScan(v" in database.explain(plan)
        database.query("DROP MATERIALIZED VIEW v")
        raw = database.plan(plan, Settings(enable_columnar=False)).explain()
        assert "ViewScan" not in raw
        assert "Adjustment(align)" in raw
        assert sorted(database.execute(plan).rows) == sorted(substituted)

    def test_a_view_has_no_table(self, database):
        database.views.create_align_view("v", "l", "r", condition=equi_cat())
        with pytest.raises(ViewError, match="'v' is a materialized view"):
            database.get_table("v")
        assert scan(database, "v").columns == ["cat", "min_dur", "max_dur", "ts", "te"]

    def test_different_condition_does_not_match(self, database):
        database.views.create_align_view("v", "l", "r", condition=equi_cat())
        other = Comparison("=", Column("l.min_dur"), Column("r.min_dur"))
        plan = align_plan(scan(database, "l", "l"), scan(database, "r", "r"), other)
        assert "ViewScan" not in database.explain(plan)

    def test_explain_shows_maintained_until_served(self, database):
        database.views.create_align_view("v", "l", "r", condition=equi_cat())
        plan = align_plan(scan(database, "l", "l"), scan(database, "r", "r"), equi_cat())
        database.insert_rows("l", [(("C0001", 1, 2), Interval(5, 9))])
        assert "ViewScan(v, maintained)" in database.explain(plan)
        database.execute(plan)  # serving the query folds the deltas in
        assert "ViewScan(v, fresh)" in database.explain(plan)


class TestDependencies:
    def test_recompute_view_over_a_view_tracks_staleness(self, database):
        conn = Connection(database)
        conn.execute(
            "CREATE MATERIALIZED VIEW rn AS "
            "SELECT * FROM (l a NORMALIZE l b USING(cat)) x"
        )
        conn.execute(
            "CREATE MATERIALIZED VIEW agg AS "
            "SELECT cat, COUNT(*) AS c FROM rn GROUP BY cat"
        )
        before = dict(conn.execute("SELECT * FROM agg").rows)
        database.insert_rows("l", [(("C0000", 1, 2), Interval(500, 600))])
        # the mutation flows base → incremental view → dependent recompute view
        after = dict(conn.execute("SELECT * FROM agg").rows)
        assert after["C0000"] == before["C0000"] + 1

    def test_explicit_refresh_forces_reexecution(self, database):
        conn = Connection(database)
        conn.execute("CREATE MATERIALIZED VIEW snap AS SELECT cat, ts, te FROM l")
        view = database.views.get("snap")
        runs = view.stats["recomputed"]
        status = conn.execute("REFRESH MATERIALIZED VIEW snap")
        assert "recomputed" in status.rows[0][0]
        assert view.stats["recomputed"] == runs + 1

    def test_drop_table_cascades_to_dependent_views(self, database):
        database.views.create_align_view("v", "l", "r", condition=equi_cat())
        conn = Connection(database)
        conn.execute("CREATE MATERIALIZED VIEW over_v AS SELECT cat, COUNT(*) AS c FROM v GROUP BY cat")
        database.drop_table("l")
        assert "v" not in database.views      # direct dependent
        assert "over_v" not in database.views  # transitive dependent

    def test_reregistering_a_name_detaches_old_views(self, database):
        database.views.create_align_view("v", "l", "r", condition=equi_cat())
        old_relation = database.relations["l"]
        replacement, _ = generate_random(config=CONFIG)
        database.register_relation("l", replacement)
        assert "v" not in database.views  # the old view must not serve the new "l"
        # ...and a mutation of the old relation reaches nothing the database
        # serves: reads of "l" answer the replacement.
        epoch = database.transactions.commit_epoch
        old_relation.insert(("C0000", 1, 2), Interval(0, 1))
        assert database.transactions.commit_epoch == epoch
        assert sorted(database.query("SELECT * FROM l").rows) == sorted(
            t.values + (t.start, t.end) for t in replacement
        )


class TestCatalog:
    def test_residual_keeps_what_the_key_codes_do_not_decide(self):
        left = ["l.cat", "l.min_dur", "l.max_dur", "l.ts", "l.te"]
        right = ["r.cat", "r.min_dur", "r.max_dur", "r.ts", "r.te"]
        on_ts = Comparison("=", Column("l.ts"), Column("r.ts"))
        shorter = Comparison("<=", Column("l.min_dur"), Column("r.max_dur"))
        condition = And(equi_cat(), on_ts, shorter)
        assert residual_condition(equi_cat(), left, right, [("cat", "cat")]) is None
        residual = residual_condition(condition, left, right, [("cat", "cat")])
        assert repr(residual) == repr(And(on_ts, shorter))
        assert residual_condition(condition, left, right, []) is not None

    def test_condition_fingerprint_canonicalizes_aliases(self):
        left = ["a.cat", "a.ts", "a.te"]
        right = ["b.cat", "b.ts", "b.te"]
        fp1 = condition_fingerprint(Comparison("=", Column("a.cat"), Column("b.cat")), left, right)
        fp2 = condition_fingerprint(
            Comparison("=", Column("x.cat"), Column("y.cat")),
            ["x.cat", "x.ts", "x.te"],
            ["y.cat", "y.ts", "y.te"],
        )
        assert fp1 == fp2 is not None

    def test_duplicate_names_and_fingerprints_rejected(self, database):
        database.views.create_align_view("v", "l", "r", condition=equi_cat())
        with pytest.raises(ViewError):
            database.views.create_align_view("v", "l", "r", condition=equi_cat())
        with pytest.raises(ViewError):
            database.views.create_align_view("v2", "l", "r", condition=equi_cat())

    def test_views_require_registered_relations(self, database):
        with pytest.raises(ViewError):
            database.views.create_align_view("v", "l", "nope", condition=None)

    def test_drop_releases_name_and_fingerprint(self, database):
        database.views.create_align_view("v", "l", "r", condition=equi_cat())
        database.views.drop("v")
        database.views.create_align_view("v2", "l", "r", condition=equi_cat())
        assert database.views.names() == ["v2"]


class TestNullKeys:
    """A key containing ω equals nothing, in a view as in its query."""

    QUERIES = {
        "align": "SELECT * FROM (r r1 ALIGN s s1 ON r1.k = s1.k) x",
        "normalize": "SELECT * FROM (r r1 NORMALIZE s s1 USING(k)) x",
    }

    @staticmethod
    def _connection():
        r = TemporalRelation(Schema(["k", "v"]))
        r.insert((NULL, 1), Interval(0, 10))
        r.insert(("a", 2), Interval(0, 10))
        s = TemporalRelation(Schema(["k", "w"]))
        s.insert((NULL, 3), Interval(2, 5))
        s.insert(("a", 4), Interval(3, 6))
        db = Database()
        db.register_relation("r", r)
        db.register_relation("s", s)
        return Connection(db)

    @staticmethod
    def _mutate(connection):
        db = connection.database
        db.insert_rows("r", [((NULL, 5), Interval(1, 8))])
        db.insert_rows("s", [((NULL, 6), Interval(4, 7)), (("a", 7), Interval(1, 2))])

    @pytest.mark.parametrize("kind", sorted(QUERIES))
    def test_view_and_substituted_query_equal_the_query_without_the_view(
        self, kind, monkeypatch
    ):
        # Relations this small would recompute: pin the delta path.
        monkeypatch.setattr(cost, "maintenance_strategy", lambda *_sizes: "incremental")
        query = self.QUERIES[kind]
        connection, twin = self._connection(), self._connection()
        connection.execute(f"CREATE MATERIALIZED VIEW v AS {query}")
        for step in ("created", "mutated"):
            if step == "mutated":
                self._mutate(connection)
                self._mutate(twin)
            expected = Counter(twin.execute(query).rows)
            assert any(NULL in row for row in expected)
            assert Counter(connection.execute("SELECT * FROM v").rows) == expected, step
            plan = "\n".join(row[0] for row in connection.execute(f"EXPLAIN {query}").rows)
            assert "ViewScan(v" in plan
            assert Counter(connection.execute(query).rows) == expected, step
        assert connection.database.views.get("v").stats["incremental"] == 1

    @pytest.mark.parametrize("kind", ["align", "normalize"])
    def test_views_defined_through_the_api_keep_the_rule(self, kind, monkeypatch):
        # An opaque θ with equi_attributes, or create_normalize_view, has no
        # SQL query to agree with; it follows the query's rule all the same
        # (core's align_relation/normalize still let ω match ω).
        monkeypatch.setattr(cost, "maintenance_strategy", lambda *_sizes: "incremental")
        database = self._connection().database
        if kind == "align":
            view = database.views.create_align_view(
                "v", "r", "s", theta=lambda x, y: True, equi_attributes=["k"]
            )
        else:
            view = database.views.create_normalize_view("v", "r", "s", attributes=["k"])
        expected = {(NULL, 1, 0, 10), ("a", 2, 0, 3), ("a", 2, 3, 6), ("a", 2, 6, 10)}
        assert set(view.iter_rows()) == expected
        self._mutate(Connection(database))
        assert view.refresh() == "incremental"
        expected |= {(NULL, 5, 1, 8)}
        expected -= {("a", 2, 0, 3)}
        expected |= {("a", 2, 0, 1), ("a", 2, 1, 2), ("a", 2, 2, 3)}
        assert set(view.iter_rows()) == expected


def test_a_bound_conjunct_in_theta_stays_per_pair(database, monkeypatch):
    # ``l.ts = r.ts`` is a key of the query's join but no key code of the
    # view: the view evaluates it per candidate pair, and agrees.
    monkeypatch.setattr(cost, "maintenance_strategy", lambda *_sizes: "incremental")
    query = "SELECT * FROM (l ALIGN r ON l.cat = r.cat AND l.ts = r.ts) x"
    connection = Connection(database)
    expected = Counter(connection.execute(query).rows)
    connection.execute(f"CREATE MATERIALIZED VIEW v AS {query}")
    view = database.views.get("v")
    assert Counter(view.iter_rows()) == expected
    for mutate in MUTATIONS:
        mutate(database)
    database.insert_rows("r", [(("C0001", 1, 4), Interval(50, 80))])
    assert view.refresh() == "incremental"
    database.views.drop("v")
    expected = Counter(connection.execute(query).rows)
    assert any(row[3:] == (50, 80) for row in expected)  # a pair θ accepted
    assert Counter(view.iter_rows()) == expected


class TestTrimBoundaryKeepsViewsIncremental:
    def test_trim_to_exactly_the_consumed_version_stays_incremental(self, database):
        # Regression: the view consumed everything up to `cursor`; trimming
        # the log to exactly that version must not read as truncation — the
        # next single-tuple delta must still take the incremental path.
        view = database.views.create_align_view("v", "l", "r", condition=equi_cat())
        database.insert_rows("l", [(("C0001", 1, 2), Interval(0, 10))])
        assert view.refresh() == "incremental"
        recomputes = view.stats["recomputed"]
        for name in ("l", "r"):
            database.relations[name].trim_changelog(database.relations[name].version)
        assert view.refresh() == "fresh"
        database.insert_rows("l", [(("C0002", 1, 2), Interval(5, 9))])
        assert view.refresh() == "incremental"
        assert view.stats["recomputed"] == recomputes
        assert view.result() == scratch_align(database)

    def test_trim_one_past_the_cursor_forces_recompute(self, database):
        # The complementary boundary: trimming *past* the cursor genuinely
        # loses deltas the view still needs, so recompute is the only sound
        # answer.
        view = database.views.create_align_view("v", "l", "r", condition=equi_cat())
        database.insert_rows("l", [(("C0001", 1, 2), Interval(0, 10))])
        relation = database.relations["l"]
        relation.trim_changelog(relation.version)  # cursor < trimmed horizon
        assert view.refresh() == "recomputed"
        assert view.result() == scratch_align(database)
