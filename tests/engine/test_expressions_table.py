"""Engine building blocks: tables and scalar expressions."""

import pytest

from repro.columnar.runtime import forced_python, numpy_available, numpy_or_none
from repro.engine.database import Database
from repro.engine.expressions import (
    And,
    Arithmetic,
    Between,
    Column,
    Comparison,
    FunctionCall,
    IndexColumn,
    IsNull,
    Literal,
    Negate,
    Not,
    Or,
    PythonPredicate,
    compile_pair_mask,
    conjunction,
    equijoin_keys,
    equijoin_residual,
    resolve_column,
)
from repro.engine.table import Table, relation_columns, relation_rows
from repro.relation.errors import QueryError, SchemaError
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.relation.tuple import NULL
from repro.sql.interface import Connection
from repro.temporal.interval import Interval


class TestTable:
    def test_construction_and_access(self):
        table = Table("t", ["a", "b"], [(1, 2), (3, 4)])
        assert len(table) == 2
        assert table.column_index("b") == 1
        table.append((5, 6))
        assert list(table)[-1] == (5, 6)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", ["a", "a"])

    def test_append_width_checked(self):
        table = Table("t", ["a"])
        with pytest.raises(SchemaError):
            table.append((1, 2))

    def test_unknown_column(self):
        with pytest.raises(SchemaError):
            Table("t", ["a"]).column_index("zzz")

    def test_relation_roundtrip(self):
        relation = TemporalRelation(Schema(["n"]))
        relation.insert(("Ann",), Interval(0, 7))
        table = Table("r", relation_columns(relation), relation_rows(relation))
        assert table.columns == ("n", "ts", "te")
        assert table.rows == [("Ann", 0, 7)]
        back = table.to_relation()
        assert back == relation

    def test_relation_rows_are_cached_until_the_next_mutation(self):
        relation = TemporalRelation(Schema(["n"]))
        relation.insert(("Ann",), Interval(0, 7))
        rows = relation_rows(relation)
        assert relation_rows(relation) is rows
        relation.insert(("Bob",), Interval(1, 2))
        assert relation_rows(relation) == [("Ann", 0, 7), ("Bob", 1, 2)]
        assert rows == [("Ann", 0, 7)]  # a reader's list is never rewritten

    def test_pretty(self):
        table = Table("t", ["a"], [(i,) for i in range(30)])
        rendered = table.pretty(limit=3)
        assert "more rows" in rendered


class TestResolution:
    def test_exact_and_base_name_matching(self):
        columns = ["r.a", "r.b", "s.c"]
        assert resolve_column("r.a", columns) == 0
        assert resolve_column("b", columns) == 1
        assert resolve_column("s.c", columns) == 2

    def test_ambiguous_and_unknown(self):
        columns = ["r.a", "s.a"]
        with pytest.raises(QueryError):
            resolve_column("a", columns)
        with pytest.raises(QueryError):
            resolve_column("zzz", columns)


class TestExpressions:
    COLUMNS = ["x", "y", "name"]

    def evaluate(self, expression, row):
        return expression.bind(self.COLUMNS)(row)

    def test_literal_and_column(self):
        assert self.evaluate(Literal(42), (1, 2, "a")) == 42
        assert self.evaluate(Column("y"), (1, 2, "a")) == 2

    def test_index_column(self):
        assert self.evaluate(IndexColumn(2), (1, 2, "a")) == "a"
        with pytest.raises(QueryError):
            IndexColumn(9).bind(self.COLUMNS)

    def test_comparisons(self):
        assert self.evaluate(Comparison("<", Column("x"), Column("y")), (1, 2, "a"))
        assert not self.evaluate(Comparison(">=", Column("x"), Column("y")), (1, 2, "a"))
        assert self.evaluate(Comparison("=", Column("name"), Literal("a")), (1, 2, "a"))
        with pytest.raises(QueryError):
            Comparison("~", Literal(1), Literal(2))

    def test_null_comparisons_are_false(self):
        assert not self.evaluate(Comparison("=", Column("x"), Literal(NULL)), (NULL, 2, "a"))
        assert not self.evaluate(Comparison("<", Column("x"), Column("y")), (NULL, 2, "a"))

    def test_boolean_connectives(self):
        true = Comparison("<", Literal(1), Literal(2))
        false = Comparison(">", Literal(1), Literal(2))
        assert self.evaluate(And(true, true), ())
        assert not self.evaluate(And(true, false), ())
        assert self.evaluate(Or(false, true), ())
        assert self.evaluate(Not(false), ())

    def test_arithmetic_and_negate(self):
        assert self.evaluate(Arithmetic("+", Column("x"), Column("y")), (1, 2, "a")) == 3
        assert self.evaluate(Arithmetic("*", Literal(3), Literal(4)), ()) == 12
        assert self.evaluate(Negate(Column("x")), (5, 0, "")) == -5
        from repro.relation.tuple import is_null

        assert is_null(self.evaluate(Arithmetic("-", Column("x"), Literal(NULL)), (1, 2, "a")))

    def test_functions(self):
        assert self.evaluate(FunctionCall("DUR", [Literal(3), Literal(9)]), ()) == 6
        assert self.evaluate(FunctionCall("DUR", [Literal(Interval(3, 9))]), ()) == 6
        assert self.evaluate(FunctionCall("GREATEST", [Literal(3), Literal(NULL), Literal(7)]), ()) == 7
        assert self.evaluate(FunctionCall("LEAST", [Literal(3), Literal(7)]), ()) == 3
        assert self.evaluate(FunctionCall("COALESCE", [Literal(NULL), Literal(5)]), ()) == 5
        assert self.evaluate(FunctionCall("ABS", [Literal(-5)]), ()) == 5
        assert self.evaluate(
            FunctionCall("OVERLAPS", [Literal(1), Literal(5), Literal(4), Literal(9)]), ()
        )
        with pytest.raises(QueryError):
            FunctionCall("NO_SUCH_FUNCTION", [])

    def test_between_and_is_null(self):
        assert self.evaluate(Between(Column("x"), Literal(0), Literal(5)), (3, 0, ""))
        assert not self.evaluate(Between(Column("x"), Literal(0), Literal(5)), (9, 0, ""))
        assert self.evaluate(IsNull(Column("x")), (NULL, 0, ""))
        assert self.evaluate(IsNull(Column("x"), negated=True), (3, 0, ""))

    def test_python_predicate(self):
        predicate = PythonPredicate(lambda env: env["x"] + env["y"] == 3)
        assert self.evaluate(predicate, (1, 2, "a"))

    def test_conjunction_helper(self):
        assert conjunction([]) is None
        single = Comparison("=", Literal(1), Literal(1))
        assert conjunction([single]) is single
        assert isinstance(conjunction([single, single]), And)

    def test_equijoin_key_extraction(self):
        left = ["r.a", "r.ts"]
        right = ["s.b", "s.ts"]
        condition = And(
            Comparison("=", Column("r.a"), Column("s.b")),
            Comparison("<", Column("r.ts"), Column("s.ts")),
        )
        assert equijoin_keys(condition, left, right) == [("r.a", "s.b")]
        flipped = Comparison("=", Column("s.b"), Column("r.a"))
        assert equijoin_keys(flipped, left, right) == [("r.a", "s.b")]
        assert equijoin_keys(None, left, right) == []

    def test_equijoin_residual_drops_exactly_the_key_equalities(self):
        left = ["r.a", "r.ts"]
        right = ["s.b", "s.ts"]
        key = Comparison("=", Column("r.a"), Column("s.b"))
        inequality = Comparison("<", Column("r.ts"), Column("s.ts"))
        same_side = Comparison("=", Column("r.a"), Column("r.ts"))
        assert equijoin_residual(None, left, right) is None
        assert equijoin_residual(key, left, right) is None
        assert equijoin_residual(And(key, inequality), left, right) is inequality
        rest = equijoin_residual(And(key, inequality, same_side), left, right)
        assert isinstance(rest, And) and rest.operands == [inequality, same_side]

    def test_references(self):
        condition = And(Comparison("=", Column("a"), Literal(1)), Between(Column("b"), Literal(0), Column("c")))
        assert set(condition.references()) == {"a", "b", "c"}


class TestPairMask:
    """``compile_pair_mask`` against ``bind``, pair for pair.

    Without NumPy every mask declines (``None``) and the per-pair twin is
    the only evaluator; the assertions say so rather than skipping.
    """

    LEFT = ["r.a", "r.s", "r.ts", "r.te"]
    RIGHT = ["s.b", "s.f", "s.ts", "s.te"]
    LEFT_ROWS = [(1, "x", 0, 10), (NULL, "y", 5, 6), (-7, "x", 2, 3)]
    RIGHT_ROWS = [(3, 1.5, 1, 4), (NULL, 2.0, 0, 9), (-7, 0.5, 5, 8)]

    def _pairs(self):
        li = [i for i in range(len(self.LEFT_ROWS)) for _ in self.RIGHT_ROWS]
        ri = [j for _ in self.LEFT_ROWS for j in range(len(self.RIGHT_ROWS))]
        np = numpy_or_none()
        if np is None:
            return li, ri
        return np.asarray(li, dtype=np.int64), np.asarray(ri, dtype=np.int64)

    def _evaluate(self, expression, left_rows=None, right_rows=None):
        """``(mask as a list or None, the per-pair twin's flags)``."""
        left_rows = self.LEFT_ROWS if left_rows is None else left_rows
        right_rows = self.RIGHT_ROWS if right_rows is None else right_rows
        li, ri = self._pairs()
        bound = expression.bind(self.LEFT + self.RIGHT)
        flags = [bool(bound(left_rows[i] + right_rows[j])) for i, j in zip(list(li), list(ri))]
        program = compile_pair_mask(expression, self.LEFT, self.RIGHT)
        mask = None if program is None else program(left_rows, right_rows, li, ri)
        if not numpy_available():
            assert mask is None
        return (None if mask is None else mask.tolist()), flags

    @pytest.mark.parametrize(
        "expression",
        [
            Comparison("<", Column("r.a"), Column("s.b")),
            Comparison("<>", Column("r.a"), Literal(1)),
            Between(FunctionCall("DUR", [Column("r.ts"), Column("r.te")]), Column("s.ts"), Literal(6)),
            Not(Comparison(">=", Arithmetic("+", Column("r.a"), Column("s.b")), Literal(0))),
            Or(IsNull(Column("r.a")), IsNull(Negate(Column("s.b")), negated=True)),
            And(Comparison("=", IndexColumn(0), IndexColumn(4)), Comparison("<", Column("r.ts"), Literal(3))),
            IsNull(Arithmetic("-", Column("r.a"), Column("s.b"))),
        ],
    )
    def test_compiled_grammar_matches_bind_with_null_semantics(self, expression):
        mask, flags = self._evaluate(expression)
        if numpy_available():
            assert mask == flags

    @pytest.mark.parametrize(
        "expression",
        [
            Comparison("=", Column("r.s"), Literal("x")),  # str literal
            Comparison("<", Column("s.f"), Column("r.a")),  # float column
            Comparison("<", Column("r.s"), Column("r.s")),  # str column
            Comparison("=", Column("r.a"), Literal(True)),  # bool literal
            Comparison("<", Arithmetic("*", Column("r.a"), Column("s.b")), Literal(4)),
            Comparison("<", Arithmetic("%", Column("r.a"), Literal(2)), Literal(1)),
            Comparison("<", FunctionCall("ABS", [Column("r.a")]), Literal(4)),
            PythonPredicate(lambda env: env["a"] == 1),
        ],
    )
    def test_everything_else_declines_to_the_per_pair_twin(self, expression):
        mask, flags = self._evaluate(expression)
        assert mask is None
        assert len(flags) == len(self.LEFT_ROWS) * len(self.RIGHT_ROWS)

    def test_magnitudes_that_could_wrap_decline_comparisons_do_not(self):
        huge = [(2**62 + 1, "x", 0, 10)] * 3
        total = Comparison(">", Arithmetic("+", Column("r.a"), Column("r.a")), Literal(0))
        mask, flags = self._evaluate(total, left_rows=huge)
        assert mask is None and all(flags)
        compare = Comparison(">", Column("r.a"), Column("s.b"))
        mask, flags = self._evaluate(compare, left_rows=huge)
        if numpy_available():
            assert mask == flags and flags.count(True) == 6  # s.b = ω: false
        beyond = [(2**64, "x", 0, 10)] * 3  # no int64 at all
        assert self._evaluate(compare, left_rows=beyond)[0] is None


class TestMixedTypes:
    """Operands of types Python rejects: an ordering comparison follows
    ORDER BY's total order (int < str, as SQLite), arithmetic is a
    ``QueryError`` naming the operator and the types; with NumPy and
    without."""

    @pytest.fixture(params=["numpy", "python"])
    def connection(self, request):
        def relation(attributes, rows):
            result = TemporalRelation(Schema(attributes))
            for *values, start, end in rows:
                result.insert(tuple(values), Interval(start, end))
            return result

        connection = Connection(Database())
        connection.register_relation("r", relation(["x", "cat"], [(1, "a", 0, 5), (2, "b", 3, 8)]))
        connection.register_relation("s", relation(["cat"], [("a", 1, 4), ("b", 2, 9)]))
        if request.param == "numpy":
            yield connection
        else:
            with forced_python():
                yield connection

    def test_ordering_comparisons_across_types(self, connection):
        assert connection.execute("SELECT * FROM r WHERE r.x > 'a'").rows == []
        assert len(connection.execute("SELECT * FROM r WHERE r.x < 'a'").rows) == 2
        assert len(connection.execute("SELECT * FROM r WHERE r.x BETWEEN 0 AND 'z'").rows) == 2
        # Every int orders before every str, so θ holds for every pair.
        mixed = connection.execute("SELECT * FROM (r ALIGN s ON r.x < s.cat) x").rows
        assert mixed == connection.execute("SELECT * FROM (r ALIGN s ON TRUE) x").rows

    @pytest.mark.parametrize("sql, message", [
        ("SELECT * FROM r WHERE r.cat / 2 = 1", "operator / is not defined for str and int"),
        ("SELECT * FROM r JOIN s ON r.cat / s.cat = 1", "operator / is not defined for str and str"),
        ("SELECT * FROM r WHERE -r.cat = 1", "operator - is not defined for str"),
    ])
    def test_arithmetic_on_rejected_operands_is_a_query_error(self, connection, sql, message):
        with pytest.raises(QueryError, match=f"^{message}$"):
            connection.execute(sql)
