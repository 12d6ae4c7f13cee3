"""SQL front end: lexer, parser, analyzer and end-to-end query execution."""

import pytest

from repro.engine.database import Database
from repro.engine.expressions import Comparison, Not
from repro.engine.optimizer.settings import Settings
from repro.relation.errors import QueryError, SQLSyntaxError
from repro.sql import Connection, parse
from repro.sql import ast
from repro.sql.lexer import tokenize
from repro.workloads.hotel import (
    HOTEL_TIMELINE,
    expected_q1_result,
    expected_q2_result,
    hotel_prices,
    hotel_reservations,
)


class TestLexer:
    def test_keywords_and_names(self):
        kinds = [(t.kind, t.value) for t in tokenize("SELECT n FROM r")]
        assert kinds[0] == ("KEYWORD", "SELECT")
        assert kinds[1] == ("NAME", "n")
        assert kinds[-1][0] == "EOF"

    def test_case_insensitive_keywords(self):
        assert tokenize("select")[0].value == "SELECT"

    def test_qualified_names_are_single_tokens(self):
        assert tokenize("r.ts")[0].value == "r.ts"

    def test_numbers_strings_operators(self):
        tokens = tokenize("x <= 3.5 + 'it''s'")
        assert [t.kind for t in tokens[:-1]] == ["NAME", "OP", "NUMBER", "OP", "STRING"]
        assert tokens[4].value == "it's"

    def test_comments_skipped(self):
        assert len(tokenize("SELECT -- a comment\n n")) == 3

    def test_unexpected_character(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT @")


class TestParser:
    def test_simple_select(self):
        statement = parse("SELECT a, b AS bee FROM t WHERE a = 1")
        assert len(statement.items) == 2
        assert statement.items[1].alias == "bee"
        assert isinstance(statement.from_items[0], ast.TableName)
        assert isinstance(statement.where, Comparison)

    def test_wildcards(self):
        statement = parse("SELECT *, r.* FROM r")
        assert statement.items[0].wildcard == ""
        assert statement.items[1].wildcard == "r"

    def test_joins(self):
        statement = parse("SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.y")
        join = statement.from_items[0]
        assert isinstance(join, ast.JoinRef)
        assert join.kind == "left"

    def test_align_and_normalize_items(self):
        statement = parse("SELECT * FROM (r ALIGN s ON r.x = s.y) a")
        item = statement.from_items[0]
        assert isinstance(item, ast.AlignRef)
        assert item.alias == "a"

        statement = parse("SELECT * FROM (r r1 NORMALIZE r r2 USING(ssn, pcn)) n")
        item = statement.from_items[0]
        assert isinstance(item, ast.NormalizeRef)
        assert item.using == ["ssn", "pcn"]

    def test_with_and_set_operations(self):
        statement = parse("WITH c AS (SELECT x FROM t) SELECT x FROM c UNION SELECT x FROM t")
        assert statement.ctes[0].name == "c"
        assert statement.set_operation[0] == "union"

    def test_group_order_limit_distinct_absorb(self):
        statement = parse(
            "SELECT ABSORB v, COUNT(*) c FROM t GROUP BY v ORDER BY v DESC LIMIT 5"
        )
        assert statement.absorb
        assert statement.group_by
        assert not statement.order_by[0].ascending
        assert statement.limit == 5
        assert parse("SELECT DISTINCT v FROM t").distinct

    def test_expressions(self):
        statement = parse("SELECT * FROM t WHERE DUR(ts, te) BETWEEN 1 AND 5 AND x IS NOT NULL")
        assert statement.where is not None
        statement = parse("SELECT * FROM t WHERE NOT x = 1 OR -y < 3")
        assert statement.where is not None

    def test_exists(self):
        statement = parse("SELECT * FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.x = r.x)")
        assert isinstance(statement.where, Not)
        assert isinstance(statement.where.operand, ast.ExistsExpression)

    def test_aggregates_in_select_list(self):
        statement = parse("SELECT AVG(x), COUNT(*) FROM t")
        assert isinstance(statement.items[0].expression, ast.AggregateExpression)
        assert statement.items[1].expression.argument is None

    @pytest.mark.parametrize("text", [
        "SELECT",                      # missing select list
        "SELECT a FROM",               # missing table
        "SELECT a FROM t WHERE",       # missing predicate
        "SELECT a FROM (r ALIGN s) x",  # missing ON
        "SELECT a FROM t )",           # trailing input
    ])
    def test_syntax_errors(self, text):
        with pytest.raises(SQLSyntaxError):
            parse(text)


@pytest.fixture
def connection():
    database = Database()
    conn = Connection(database)
    conn.register_relation("r", hotel_reservations())
    conn.register_relation("p", hotel_prices())
    return conn


class TestExecution:
    def test_projection_and_filter(self, connection):
        table = connection.execute("SELECT n FROM r WHERE n = 'Ann'")
        assert table.columns == ("n",)
        assert len(table) == 2

    def test_order_by_and_limit(self, connection):
        table = connection.execute("SELECT n, ts FROM r ORDER BY ts DESC LIMIT 1")
        assert table.rows == [("Ann", 7)]

    def test_expressions_and_functions(self, connection):
        table = connection.execute("SELECT n, DUR(ts, te) AS d FROM r ORDER BY d")
        assert [row[1] for row in table.rows] == [4, 4, 7]

    def test_joins(self, connection):
        table = connection.execute(
            "SELECT r1.n, r2.n FROM r r1 JOIN r r2 ON r1.n = r2.n AND r1.ts < r2.ts"
        )
        assert table.rows == [("Ann", "Ann")]

    def test_group_by_aggregation(self, connection):
        table = connection.execute("SELECT n, COUNT(*) AS c, MIN(ts) AS first FROM r GROUP BY n")
        rows = {row[0]: row[1:] for row in table.rows}
        assert rows["Ann"] == (2, 0)
        assert rows["Joe"] == (1, 1)

    def test_set_operations(self, connection):
        table = connection.execute("SELECT n FROM r UNION SELECT n FROM r")
        assert len(table) == 2
        table = connection.execute("SELECT n FROM r EXCEPT SELECT n FROM r WHERE n = 'Joe'")
        assert table.rows == [("Ann",)]

    def test_distinct(self, connection):
        assert len(connection.execute("SELECT DISTINCT n FROM r")) == 2

    def test_subquery_and_cte(self, connection):
        table = connection.execute(
            "WITH ann AS (SELECT * FROM r WHERE n = 'Ann') "
            "SELECT x.n FROM (SELECT n FROM ann) x"
        )
        assert len(table) == 2

    def test_not_exists_rewrite(self, connection):
        # Reservation periods with no concurrent other guest.
        table = connection.execute(
            "SELECT r1.n, r1.ts, r1.te FROM r r1 WHERE NOT EXISTS ("
            "SELECT * FROM r r2 WHERE r2.n <> r1.n AND r2.ts < r1.te AND r1.ts < r2.te)"
        )
        assert ("Ann", 7, 11) in set(table.rows)
        assert len(table) == 1

    def test_exists_rewrite(self, connection):
        table = connection.execute(
            "SELECT r1.n FROM r r1 WHERE EXISTS ("
            "SELECT * FROM r r2 WHERE r2.n <> r1.n AND r2.ts < r1.te AND r1.ts < r2.te)"
        )
        assert {row[0] for row in table.rows} == {"Ann", "Joe"}

    def test_absorb_requires_timestamp_columns(self, connection):
        with pytest.raises(QueryError):
            connection.execute("SELECT ABSORB n FROM r")

    def test_aggregate_in_where_rejected(self, connection):
        with pytest.raises(QueryError):
            connection.execute("SELECT n FROM r WHERE COUNT(*) > 1 GROUP BY n")

    def test_explain(self, connection):
        text = connection.explain("SELECT n FROM r WHERE n = 'Ann'")
        assert "SeqScan" in text and "Filter" in text


class TestPaperQueries:
    """The exact SQL of Sec. 6.2 and 6.3 (modulo identifier case)."""

    Q1 = """
    WITH ru AS (SELECT ts us, te ue, * FROM r)
    SELECT ABSORB n, a, min, max, ru1.ts, ru1.te
    FROM (ru ALIGN p ON DUR(us, ue) BETWEEN min AND max) ru1
    LEFT OUTER JOIN
         (p ALIGN ru ON DUR(us, ue) BETWEEN min AND max) p1
    ON DUR(us, ue) BETWEEN min AND max AND ru1.ts = p1.ts AND ru1.te = p1.te
    """

    Q2 = """
    WITH ru AS (SELECT ts us, te ue, * FROM r)
    SELECT AVG(DUR(us, ue)) AS avg_dur, ts, te
    FROM (ru r1 NORMALIZE ru r2 USING()) n
    GROUP BY ts, te
    """

    def test_q1_matches_figure_1b(self, connection):
        assert connection.query_relation(self.Q1) == expected_q1_result()

    def test_q2_matches_figure_7(self, connection):
        assert connection.query_relation(self.Q2) == expected_q2_result()

    def test_q1_plan_contains_temporal_nodes(self, connection):
        plan = connection.explain(self.Q1, Settings(enable_columnar=False))
        assert plan.count("Adjustment(align)") == 2
        assert "Absorb" in plan

    def test_normalize_with_using_attributes(self, connection):
        table = connection.execute(
            "SELECT n, ts, te FROM (r a NORMALIZE r b USING(n)) x ORDER BY n, ts"
        )
        assert len(table) == 3  # same-guest reservations do not overlap
