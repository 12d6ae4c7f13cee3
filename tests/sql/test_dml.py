"""Temporal DML and materialized-view statements through the SQL front end."""

import pytest

from repro import Interval
from repro.engine.database import Database
from repro.engine.optimizer.settings import Settings
from repro.relation.errors import QueryError, SchemaError, SQLSyntaxError
from repro.sql import Connection, parse
from repro.sql import ast
from repro.workloads.hotel import hotel_prices, hotel_reservations


@pytest.fixture
def connection():
    database = Database()
    conn = Connection(database)
    conn.register_relation("r", hotel_reservations())
    conn.register_relation("p", hotel_prices())
    return conn


class TestDMLParsing:
    def test_insert_with_period(self):
        statement = parse("INSERT INTO r (n) VALUES ('Kim') VALID PERIOD [3, 9)")
        assert isinstance(statement, ast.InsertStatement)
        assert statement.table == "r"
        assert statement.columns == ["n"]
        assert len(statement.rows) == 1

    def test_multi_row_insert(self):
        statement = parse(
            "INSERT INTO r (n) VALUES ('A'), ('B'), ('C') VALID PERIOD [0, 1)"
        )
        assert len(statement.rows) == 3

    def test_update_with_for_period(self):
        statement = parse("UPDATE p SET a = a + 5 WHERE a = 50 FOR PERIOD [2, 4)")
        assert isinstance(statement, ast.UpdateStatement)
        assert statement.assignments[0][0] == "a"
        assert statement.period is not None

    def test_delete_period_optional(self):
        with_period = parse("DELETE FROM r WHERE n = 'Joe' FOR PERIOD [3, 5)")
        without = parse("DELETE FROM r WHERE n = 'Joe'")
        assert with_period.period is not None
        assert without.period is None

    def test_view_statements(self):
        create = parse("CREATE MATERIALIZED VIEW v AS SELECT * FROM (r ALIGN p ON TRUE) a")
        assert isinstance(create, ast.CreateViewStatement)
        assert isinstance(create.query, ast.SelectStatement)
        assert isinstance(parse("DROP MATERIALIZED VIEW v"), ast.DropViewStatement)
        assert isinstance(parse("REFRESH MATERIALIZED VIEW v"), ast.RefreshViewStatement)

    @pytest.mark.parametrize("text", [
        "INSERT INTO r (n) VALUES ('Kim')",            # missing VALID PERIOD
        "INSERT INTO r (n) VALUES ('Kim') VALID PERIOD [3, 9]",  # closed period
        "UPDATE p SET WHERE a = 1",                    # missing assignment
        "DELETE r",                                    # missing FROM
        "CREATE MATERIALIZED v AS SELECT n FROM r",    # missing VIEW
    ])
    def test_syntax_errors(self, text):
        with pytest.raises(SQLSyntaxError):
            parse(text)


class TestDMLExecution:
    def test_insert_adds_rows_with_the_period(self, connection):
        status = connection.execute("INSERT INTO r (n) VALUES ('Kim') VALID PERIOD [3, 9)")
        assert status.rows == [("INSERT", "r", 1)]
        relation = connection.database.relations["r"]
        assert (("Kim",), Interval(3, 9)) in relation.as_set()
        # a scan reads the relation itself
        assert ("Kim", 3, 9) in connection.execute("SELECT n, ts, te FROM r").rows

    def test_insert_requires_all_value_columns(self, connection):
        with pytest.raises(QueryError):
            connection.execute("INSERT INTO p (a) VALUES (10) VALID PERIOD [0, 1)")

    def test_sequenced_update_splits_at_period(self, connection):
        connection.execute("UPDATE p SET a = a + 5 WHERE a = 50 FOR PERIOD [2, 4)")
        rows = set(connection.execute("SELECT a, ts, te FROM p").rows)
        assert {(50, 0, 2), (55, 2, 4), (50, 4, 5)} <= rows

    def test_sequenced_delete_keeps_outside_fragments(self, connection):
        status = connection.execute("DELETE FROM r WHERE n = 'Joe' FOR PERIOD [3, 5)")
        assert status.rows == [("DELETE", "r", 1)]
        rows = connection.execute("SELECT n, ts, te FROM r WHERE n = 'Joe'").rows
        assert rows == [("Joe", 1, 3)]

    def test_where_sees_original_interval_columns(self, connection):
        connection.execute("DELETE FROM r WHERE ts >= 7")
        names = {row[0] for row in connection.execute("SELECT n FROM r").rows}
        assert names == {"Ann", "Joe"}
        assert len(connection.execute("SELECT n FROM r").rows) == 2

    def test_dml_requires_registered_relation(self, connection):
        connection.database.create_table("plain", ["x", "ts", "te"])
        with pytest.raises(SchemaError, match="not a registered temporal relation"):
            connection.execute("INSERT INTO plain (x) VALUES (1) VALID PERIOD [0, 1)")

    def test_empty_period_rejected(self, connection):
        with pytest.raises(QueryError):
            connection.execute("DELETE FROM r FOR PERIOD [5, 5)")

    def test_dml_has_no_logical_plan(self, connection):
        with pytest.raises(QueryError):
            connection.logical_plan("DELETE FROM r")


class TestMaterializedViewsThroughSQL:
    def test_create_query_and_maintain(self, connection):
        connection.execute(
            "CREATE MATERIALIZED VIEW mv AS SELECT * FROM (r a NORMALIZE r b USING(n)) x"
        )
        before = set(connection.execute("SELECT n, ts, te FROM mv").rows)
        assert before  # materialized eagerly
        connection.execute("INSERT INTO r (n) VALUES ('Ann') VALID PERIOD [20, 22)")
        after = set(connection.execute("SELECT n, ts, te FROM mv").rows)
        assert ("Ann", 20, 22) in after
        view = connection.database.views.get("mv")
        assert view.stats["incremental"] >= 1

    def test_view_scan_appears_in_explain(self, connection):
        connection.execute(
            "CREATE MATERIALIZED VIEW mv AS SELECT * FROM (r a NORMALIZE r b USING(n)) x"
        )
        assert "ViewScan(mv, fresh)" in connection.explain("SELECT * FROM mv")
        connection.execute("DELETE FROM r WHERE n = 'Joe'")
        assert "ViewScan(mv, maintained)" in connection.explain("SELECT * FROM mv")

    def test_align_view_substituted_into_align_query(self, connection):
        connection.execute(
            "CREATE MATERIALIZED VIEW av AS SELECT * FROM (r ALIGN p ON r.ts < p.te) a"
        )
        row = Settings(enable_columnar=False)
        plan = connection.explain("SELECT * FROM (r ALIGN p ON r.ts < p.te) q", row)
        assert "ViewScan(av" in plan
        assert "Adjustment(align)" not in plan
        # a different θ keeps the real adjustment pipeline
        other = connection.explain("SELECT * FROM (r ALIGN p ON r.ts < p.ts) q", row)
        assert "ViewScan" not in other

    def test_view_query_results_match_direct_query(self, connection):
        sql = "SELECT * FROM (r a NORMALIZE r b USING(n)) x"
        connection.execute(f"CREATE MATERIALIZED VIEW mv AS {sql}")
        connection.execute("UPDATE r SET n = 'Amy' WHERE n = 'Ann' FOR PERIOD [0, 6)")
        through_view = sorted(connection.execute("SELECT n, ts, te FROM mv").rows)
        direct = sorted(connection.execute(sql).rows)
        assert through_view == direct

    def test_drop_and_refresh(self, connection):
        connection.execute(
            "CREATE MATERIALIZED VIEW mv AS SELECT * FROM (r a NORMALIZE r b USING(n)) x"
        )
        connection.execute("INSERT INTO r (n) VALUES ('Zoe') VALID PERIOD [40, 41)")
        status = connection.execute("REFRESH MATERIALIZED VIEW mv")
        assert "REFRESH" in status.rows[0][0]
        assert connection.database.views.get("mv").status() == "fresh"
        connection.execute("DROP MATERIALIZED VIEW mv")
        assert "mv" not in connection.database.views

    def test_view_name_collision_with_table(self, connection):
        with pytest.raises(SchemaError, match="already names a table"):
            connection.execute(
                "CREATE MATERIALIZED VIEW r AS SELECT * FROM (r a NORMALIZE r b USING(n)) x"
            )


class TestPeriodLiteralBounds:
    """Empty and inverted period literals fail fast with a clear error.

    Regression: a malformed period must be rejected at analysis time — an
    inverted pair reaching ``Interval`` (or an empty one reaching the sweep)
    fails far from the statement that caused it.
    """

    @pytest.mark.parametrize(
        "statement",
        [
            "INSERT INTO r (n) VALUES ('Kim') VALID PERIOD [5, 5)",
            "INSERT INTO r (n) VALUES ('Kim') VALID PERIOD [9, 3)",
            "UPDATE r SET n = 'x' FOR PERIOD [5, 5)",
            "UPDATE r SET n = 'x' FOR PERIOD [9, 3)",
            "DELETE FROM r FOR PERIOD [5, 5)",
            "DELETE FROM r FOR PERIOD [9, 3)",
            "INSERT INTO r (n) VALUES ('Kim') VALID PERIOD [2+3, 10-5)",  # constant-folded empty
        ],
    )
    def test_empty_or_inverted_periods_rejected(self, connection, statement):
        before = len(connection.execute("SELECT n FROM r").rows)
        with pytest.raises(QueryError, match="empty or inverted period"):
            connection.execute(statement)
        # The failed statement must not have touched the relation.
        assert len(connection.execute("SELECT n FROM r").rows) == before

    def test_error_names_the_evaluated_bounds(self, connection):
        with pytest.raises(QueryError, match=r"\[9, 3\)"):
            connection.execute("DELETE FROM r FOR PERIOD [9, 3)")

    def test_non_integer_bounds_rejected(self, connection):
        with pytest.raises(QueryError, match="must be integers"):
            connection.execute("DELETE FROM r FOR PERIOD [1.5, 3)")

    def test_valid_boundary_period_still_accepted(self, connection):
        # The smallest non-empty period [t, t+1) stays legal.
        result = connection.execute(
            "INSERT INTO r (n) VALUES ('Kim') VALID PERIOD [5, 6)"
        )
        assert result.rows[0][0] == "INSERT"


class TestCheckpointStatement:
    def test_checkpoint_parses(self):
        assert isinstance(parse("CHECKPOINT"), ast.CheckpointStatement)

    def test_checkpoint_is_a_noop_in_memory(self, connection):
        operation, target, rows = connection.execute("CHECKPOINT").rows[0]
        assert operation == "CHECKPOINT (noop)"
        assert rows == 0

    def test_checkpoint_writes_snapshot_when_durable(self, tmp_path):
        database = Database.open(str(tmp_path / "db"))
        conn = Connection(database)
        conn.register_relation("r", hotel_reservations())
        operation, target, _rows = conn.execute("CHECKPOINT").rows[0]
        assert operation == "CHECKPOINT (checkpoint)"
        assert (tmp_path / "db" / "snapshot.bin").exists()
        database.close()
