"""Property test: every adjustment strategy is the same function.

The load-bearing contract of the columnar layer is strategy transparency:
row sweep ≡ columnar (NumPy) ≡ columnar (pure-Python twins), on every
input.  Hypothesis drives the comparison over all three synthetic families
plus an adversarial edge family with empty relations, empty intervals,
point-adjacent intervals and duplicate endpoints — exactly the inputs where
off-by-one bugs in ``searchsorted`` boundaries would hide.  In the engine
the kernel node must equal the ``enable_columnar=False`` row plan as
ordered lists, including over bounds NumPy cannot hold (floats, fractions,
int/float ties, strings), which only the pure-Python twins take.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple
from unittest.mock import patch

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Interval, Schema, TemporalRelation, predicates
from repro.columnar.runtime import forced_python, numpy_available, numpy_or_none
from repro.core.alignment import align_relation
from repro.core.normalization import normalize
from repro.engine import plan as logical
from repro.engine.database import Database
from repro.engine.expressions import (
    And,
    Arithmetic,
    Between,
    Column,
    Comparison,
    Expression,
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
)
from repro.engine.optimizer.settings import Settings as EngineSettings
from repro.engine.temporal_plans import align_plan, scan
from repro.relation.tuple import NULL
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_disjoint,
    generate_equal,
    generate_random,
)

SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

FAMILIES = {
    "disjoint": generate_disjoint,
    "equal": generate_equal,
    "random": generate_random,
}


@st.composite
def edge_relations(draw) -> Tuple[TemporalRelation, TemporalRelation]:
    """Relations stressing kernel boundaries.

    Intervals are drawn over a tiny point domain with lengths down to zero,
    so the samples are dense with empty intervals, intervals meeting at a
    point (``[a, b)`` next to ``[b, c)``) and exactly duplicated endpoints;
    either relation may be empty.
    """
    schema = Schema(["cat", "min_dur", "max_dur"])

    def relation() -> TemporalRelation:
        rows: List[Tuple[str, int, int]] = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["C0", "C1"]),
                    st.integers(min_value=0, max_value=12),
                    st.integers(min_value=0, max_value=3),
                ),
                max_size=12,
            )
        )
        result = TemporalRelation(schema)
        for category, start, length in rows:
            result.insert((category, 1, 5), Interval(start, start + length))
        return result

    return relation(), relation()


@st.composite
def family_relations(draw) -> Tuple[TemporalRelation, TemporalRelation]:
    family = draw(st.sampled_from(sorted(FAMILIES)))
    size = draw(st.integers(min_value=0, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    config = SyntheticConfig(size=size, categories=5, seed=seed, time_span=200)
    return FAMILIES[family](config=config)


def relation_pairs():
    return st.one_of(family_relations(), edge_relations())


def _align_all_strategies(left, right, theta, equi):
    results = {
        "sweep": align_relation(left, right, theta, equi_attributes=equi, strategy="sweep"),
        "columnar": align_relation(
            left, right, theta, equi_attributes=equi, strategy="columnar"
        ),
    }
    with forced_python():
        results["columnar-python"] = align_relation(
            left, right, theta, equi_attributes=equi, strategy="columnar"
        )
    return results


class TestAlignmentStrategyEquivalence:
    @SETTINGS
    @given(relation_pairs())
    def test_equi_theta(self, pair):
        left, right = pair
        results = _align_all_strategies(left, right, None, ["cat"])
        expected = results.pop("sweep")
        for name, result in results.items():
            assert result == expected, f"{name} diverges from the row sweep"

    @SETTINGS
    @given(relation_pairs())
    def test_no_theta(self, pair):
        left, right = pair
        results = _align_all_strategies(left, right, None, None)
        expected = results.pop("sweep")
        for name, result in results.items():
            assert result == expected, f"{name} diverges from the row sweep"

    @SETTINGS
    @given(relation_pairs())
    def test_opaque_theta_falls_back_to_row_mode_per_group(self, pair):
        left, right = pair
        theta = predicates.attr_eq("cat")
        expected = align_relation(left, right, theta, strategy="sweep")
        columnar = align_relation(left, right, theta, strategy="columnar")
        with forced_python():
            fallback = align_relation(left, right, theta, strategy="columnar")
        assert columnar == expected
        assert fallback == expected


class TestNormalizationStrategyEquivalence:
    @SETTINGS
    @given(relation_pairs(), st.sampled_from([(), ("cat",)]))
    def test_all_strategies_agree(self, pair, attributes):
        left, right = pair
        expected = normalize(left, right, attributes, strategy="sweep")
        columnar = normalize(left, right, attributes, strategy="columnar")
        with forced_python():
            fallback = normalize(left, right, attributes, strategy="columnar")
        assert columnar == expected
        assert fallback == expected

    @SETTINGS
    @given(relation_pairs())
    def test_self_normalization(self, pair):
        left, _ = pair
        expected = normalize(left, left, ("cat",), strategy="sweep")
        columnar = normalize(left, left, ("cat",), strategy="columnar")
        assert columnar == expected


# -- engine: cached-frame input ≡ drained-row input ≡ row pipeline ---------------------

WILD_SCHEMA = Schema(["a", "b", "c"])

#: Equality keys as (argument attribute, reference attribute) pairs: none,
#: one, several, and pairs that sit at different positions on the two sides.
KEY_CHOICES = [
    [],
    [("a", "a")],
    [("a", "a"), ("b", "b")],
    [("a", "b")],
    [("b", "a"), ("a", "b")],
]


@st.composite
def wild_relations(draw) -> Tuple[TemporalRelation, TemporalRelation]:
    """What a dynamically typed engine may be handed: ω in key columns, mixed
    value types within one column (the plain tuple sort raises and the
    executor's total order takes over), exact duplicate tuples, empty
    intervals — on either side, in relations that may be empty."""

    def relation() -> TemporalRelation:
        rows = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["C0", "C1", 7, NULL]),
                    st.sampled_from([1, 2, "C0", NULL]),
                    st.integers(min_value=0, max_value=12),
                    st.integers(min_value=0, max_value=3),
                ),
                max_size=12,
            )
        )
        result = TemporalRelation(WILD_SCHEMA)  # duplicates allowed
        for a, b, start, length in rows:
            result.insert((a, b, 5), Interval(start, start + length))
        return result

    return relation(), relation()


def _keyed_pairs():
    cat = st.just([("cat", "cat")])
    return st.one_of(
        st.tuples(relation_pairs(), st.one_of(cat, st.just([]))),
        st.tuples(wild_relations(), st.sampled_from(KEY_CHOICES)),
    )


def _drained(physical):
    """``physical``'s rows with the frame input declined: drained, encoded."""
    from repro.engine.executor import ColumnarAdjustmentNode

    with patch.object(ColumnarAdjustmentNode, "_frame_arrays", lambda self: None):
        return physical.execute()


class TestFrameInputEquivalence:
    """The columnar node's two array sources and the row pipeline agree as
    *ordered lists*, whatever the relations hold — and so do the pure-Python
    kernels, which without NumPy run on the drained rows alone."""

    COLUMNAR = EngineSettings()
    ROW = EngineSettings(enable_columnar=False)

    def _check(self, database, plan):
        from repro.engine.executor import ColumnarAdjustmentNode
        from repro.obs import trace as obs_trace

        physical = database.plan(plan, self.COLUMNAR)
        assert isinstance(physical, ColumnarAdjustmentNode)
        with obs_trace.collect(physical) as trace:
            frame = physical.execute()
        source = "frame" if numpy_available() else "rows"
        assert trace.span_for(physical).attributes["input"] == source
        assert frame == _drained(physical)
        assert frame == database.execute(plan, self.ROW).rows
        # A second run serves every structure from the relations' caches.
        assert physical.execute() == frame
        with forced_python():
            assert physical.execute() == frame

    @staticmethod
    def _database(left, right):
        database = Database()
        database.register_relation("l", left)
        database.register_relation("r", right)
        return database

    @SETTINGS
    @given(_keyed_pairs())
    def test_align(self, case):
        (left, right), keys = case
        database = self._database(left, right)
        condition = conjunction(
            [Comparison("=", Column(f"l.{x}"), Column(f"r.{y}")) for x, y in keys]
        )
        self._check(
            database, align_plan(scan(database, "l", "l"), scan(database, "r", "r"), condition)
        )

    @SETTINGS
    @given(_keyed_pairs())
    def test_normalize(self, case):
        (left, right), keys = case
        database = self._database(left, right)
        self._check(
            database,
            logical.Normalize(scan(database, "l", "l"), scan(database, "r", "r"), keys),
        )

    @SETTINGS
    @given(_keyed_pairs(), st.sampled_from(["align", "normalize"]))
    def test_self_adjustment_through_two_aliases(self, case, kind):
        (left, _), keys = case
        database = self._database(left, left)
        first, second = scan(database, "l", "l1"), scan(database, "l", "l2")
        if kind == "align":
            condition = conjunction(
                [Comparison("=", Column(f"l1.{x}"), Column(f"l2.{y}")) for x, y in keys]
            )
            self._check(database, align_plan(first, second, condition))
        else:
            self._check(database, logical.Normalize(first, second, keys))


# -- engine: a residual θ — NumPy mask ≡ per-pair twin ≡ row pipeline ------------------

#: The synthetic schema widened with the column types a θ may meet: a
#: float, an int with ω in every third row, and ints at or above 2**62.
THETA_ATTRIBUTES = ["cat", "min_dur", "max_dur", "f", "n", "big"]
THETA_COLUMNS = THETA_ATTRIBUTES + ["ts", "te"]
INT_COLUMNS = ["min_dur", "max_dur", "n", "ts", "te"]


def _widen(relation: TemporalRelation) -> TemporalRelation:
    wide = TemporalRelation(Schema(THETA_ATTRIBUTES))
    for k, t in enumerate(relation):
        cat, low, high = t.values
        nullable = NULL if k % 3 == 0 else high - k
        wide.insert((cat, low, high, low / 2, nullable, 2**62 + k), t.interval)
    return wide


@dataclass(frozen=True)
class Theta:
    """A generated θ and what the mask compiler must make of it."""

    expression: Expression
    #: Contains a leaf outside the compiled grammar: the mask must decline.
    declines: bool = False
    #: Reads a column at or above 2**62: arithmetic on it may decline.
    big: bool = False

    def over(self, expression: Expression, *others: "Theta", declines: bool = False) -> "Theta":
        parts = (self, *others)
        return Theta(
            expression,
            declines or any(p.declines for p in parts),
            any(p.big for p in parts),
        )


SIDES = st.sampled_from(["l", "r"])


def _int_leaves():
    width = len(THETA_COLUMNS)
    positions = [THETA_COLUMNS.index(name) for name in INT_COLUMNS]
    return st.one_of(
        st.builds(lambda side, name: Theta(Column(f"{side}.{name}")), SIDES,
                  st.sampled_from(INT_COLUMNS)),
        st.builds(lambda i, offset: Theta(IndexColumn(i + offset)),
                  st.sampled_from(positions), st.sampled_from([0, width])),
        st.builds(lambda v: Theta(Literal(v)), st.integers(min_value=-5, max_value=400)),
        st.builds(lambda side: Theta(Column(f"{side}.big"), big=True), SIDES),
        # Outside the grammar: a float column, bool/float/ω literals.
        st.builds(lambda side: Theta(Column(f"{side}.f"), declines=True), SIDES),
        st.builds(lambda v: Theta(Literal(v), declines=True),
                  st.sampled_from([True, False, 2.5, NULL])),
    )


def _ints(depth: int):
    leaves = _int_leaves()
    if depth == 0:
        return leaves
    sub = _ints(depth - 1)
    return st.one_of(
        leaves,
        st.builds(lambda op, a, b: a.over(Arithmetic(op, a.expression, b.expression), b),
                  st.sampled_from(["+", "-"]), sub, sub),
        st.builds(lambda a: a.over(Negate(a.expression)), sub),
        st.builds(lambda a, b: a.over(FunctionCall("DUR", [a.expression, b.expression]), b),
                  sub, sub),
        # Outside the grammar: *, / and % (by a non-zero literal: the row
        # pipeline evaluates θ on pairs the kernel never offers, so neither
        # side may raise), other functions.
        st.builds(lambda a, b: a.over(Arithmetic("*", a.expression, b.expression), b,
                                      declines=True), sub, sub),
        st.builds(lambda op, a, k: a.over(Arithmetic(op, a.expression, Literal(k)), declines=True),
                  st.sampled_from(["/", "%"]), sub, st.integers(min_value=1, max_value=3)),
        st.builds(lambda a: a.over(FunctionCall("ABS", [a.expression]), declines=True), sub),
    )


COMPARISONS = st.sampled_from(["=", "<>", "!=", "<", "<=", ">", ">="])


def _predicates(depth: int):
    ints = _ints(1)
    base = st.one_of(
        st.builds(lambda op, a, b: a.over(Comparison(op, a.expression, b.expression), b),
                  COMPARISONS, ints, ints),
        st.builds(lambda v, lo, hi: v.over(Between(v.expression, lo.expression, hi.expression),
                                           lo, hi), ints, ints, ints),
        st.builds(lambda a, negated: a.over(IsNull(a.expression, negated)), ints, st.booleans()),
        # Outside the grammar: string columns and literals, opaque callables.
        st.builds(lambda op, other: Theta(Comparison(op, Column("l.cat"), other), declines=True),
                  COMPARISONS, st.sampled_from([Column("r.cat"), Literal("C0002")])),
        st.just(Theta(PythonPredicate(lambda env: env["min_dur"] % 2 == 0), declines=True)),
    )
    if depth == 0:
        return base
    sub = _predicates(depth - 1)
    return st.one_of(
        base,
        st.builds(lambda a, b: a.over(And(a.expression, b.expression), b), sub, sub),
        st.builds(lambda a, b: a.over(Or(a.expression, b.expression), b), sub, sub),
        st.builds(lambda a: a.over(Not(a.expression)), sub),
    )


THETAS = _predicates(2)


def _rows(relation: TemporalRelation) -> List[Tuple]:
    return [t.values + (t.start, t.end) for t in relation]


class TestResidualThetaEquivalence:
    """Generated θ over all three synthetic families and the edge family."""

    COLUMNAR = EngineSettings()
    ROW = EngineSettings(enable_columnar=False)

    @SETTINGS
    @given(relation_pairs(), THETAS)
    def test_mask_equals_the_per_pair_twin_on_every_pair(self, pair, theta):
        left, right = (_rows(_widen(relation)) for relation in pair)
        left_columns = [f"l.{c}" for c in THETA_COLUMNS]
        right_columns = [f"r.{c}" for c in THETA_COLUMNS]
        bound = theta.expression.bind(left_columns + right_columns)
        li = [i for i in range(len(left)) for _ in right]
        ri = [j for _ in left for j in range(len(right))]
        flags = [bool(bound(left[i] + right[j])) for i, j in zip(li, ri)]

        program = compile_pair_mask(theta.expression, left_columns, right_columns)
        np = numpy_or_none()
        if np is None:
            assert program is None or program(left, right, li, ri) is None
            return
        mask = None
        if program is not None:
            mask = program(left, right, np.asarray(li, dtype=np.int64),
                           np.asarray(ri, dtype=np.int64))
        if theta.declines and li:
            assert mask is None, theta.expression
        if not theta.declines and not theta.big:
            assert mask is not None, theta.expression
        if mask is not None:
            assert mask.tolist() == flags, theta.expression

    @SETTINGS
    @given(relation_pairs(), THETAS, st.booleans())
    def test_columnar_equals_row_adjustment_in_order(self, pair, theta, keyed):
        from repro.engine.executor import ColumnarAdjustmentNode

        left, right = (_widen(relation) for relation in pair)
        database = Database()
        database.register_relation("l", left)
        database.register_relation("r", right)
        key = [Comparison("=", Column("l.cat"), Column("r.cat"))] if keyed else []
        plan = align_plan(
            scan(database, "l", "l"), scan(database, "r", "r"),
            conjunction(key + [theta.expression]),
        )
        expected = database.execute(plan, self.ROW).rows
        # Planned columnar without NumPy too: Python kernels + per-pair twin.
        physical = database.plan(plan, self.COLUMNAR)
        assert isinstance(physical, ColumnarAdjustmentNode)

        assert physical.execute() == expected
        with patch("repro.engine.expressions.compile_pair_mask", lambda *a: None):
            assert physical.execute() == expected
        assert _drained(physical) == expected
        with forced_python():
            assert physical.execute() == expected


# -- engine: bounds NumPy cannot hold — pure-Python kernels ≡ row plan ----------------

BOUND_KINDS = ["float", "fraction", "int-float-ties", "str"]


def _bound(kind: str, point: int, flip: bool):
    """Grid point ``point`` as a bound of ``kind``, in the grid's order."""
    if kind == "float":
        return point / 2
    if kind == "fraction":
        return Fraction(point, 3)
    if kind == "str":
        return f"{point:02d}"
    return float(point) if flip else point  # 2 and 2.0 are one point


@st.composite
def non_integer_tables(draw):
    """Two tables ``(cat, n, ts, te)`` whose bounds are one non-``int64``
    kind, over a tiny grid: empty intervals, shared and adjacent endpoints."""
    kind = draw(st.sampled_from(BOUND_KINDS))

    def rows():
        drawn = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["C0", "C1"]),
                    st.integers(min_value=0, max_value=3),
                    st.integers(min_value=0, max_value=12),
                    st.integers(min_value=0, max_value=3),
                    st.booleans(),
                    st.booleans(),
                ),
                max_size=12,
            )
        )
        return [
            (cat, n, _bound(kind, start, a), _bound(kind, start + length, b))
            for cat, n, start, length, a, b in drawn
        ]

    return rows(), rows()


#: Keyed, unkeyed and residual-θ ALIGN; keyed and unkeyed NORMALIZE.
NON_INTEGER_SHAPES = [
    "align-keyed", "align-unkeyed", "align-residual", "normalize-keyed", "normalize-unkeyed",
]


def _non_integer_plan(database, shape):
    from repro.engine.temporal_plans import normalize_plan

    left, right = scan(database, "l", "l"), scan(database, "r", "r")
    key = Comparison("=", Column("l.cat"), Column("r.cat"))
    if shape == "align-keyed":
        return align_plan(left, right, key)
    if shape == "align-unkeyed":
        return align_plan(left, right, None)
    if shape == "align-residual":
        return align_plan(left, right, And(key, Comparison("<=", Column("l.n"), Column("r.n"))))
    return normalize_plan(left, right, ["cat"] if shape == "normalize-keyed" else [])


class TestNonIntegerBoundEquivalence:
    """The kernel node ≡ the ``enable_columnar=False`` row plan as ordered
    lists over float, fraction, mixed int/float and string bounds."""

    COLUMNAR = EngineSettings()
    ROW = EngineSettings(enable_columnar=False)

    @SETTINGS
    @given(non_integer_tables(), st.sampled_from(NON_INTEGER_SHAPES))
    def test_kernel_node_equals_the_row_plan(self, tables, shape):
        from repro.engine.executor import ColumnarAdjustmentNode
        from repro.engine.table import Table
        from repro.obs import trace as obs_trace

        left_rows, right_rows = tables
        database = Database()
        database.register_table(Table("l", ["cat", "n", "ts", "te"], left_rows))
        database.register_table(Table("r", ["cat", "n", "ts", "te"], right_rows))
        plan = _non_integer_plan(database, shape)
        expected = database.execute(plan, self.ROW).rows
        physical = database.plan(plan, self.COLUMNAR)
        assert isinstance(physical, ColumnarAdjustmentNode)

        integral = all(type(v) is int for row in left_rows + right_rows for v in row[2:])
        with obs_trace.collect(physical) as trace:
            assert physical.execute() == expected
        executed = "numpy" if integral and numpy_available() else "python"
        assert trace.span_for(physical).attributes["executed"] == executed
        with forced_python():
            assert physical.execute() == expected
