"""Property test: batches above the kernel change nothing but the cost.

GROUP BY, the equi-join on ``(key, ts, te)`` and ABSORB read a
``ColumnarAdjustment``'s output as a batch (:mod:`repro.columnar.batch`)
and build each row once.  On every input, each query must give the same
*ordered list* of rows three ways:

* the batch path (the default plan);
* the same plan with every batch declined (``PhysicalNode.batch`` returns
  ``None``, so each consumer runs its row code);
* the paper's row plan (``enable_columnar=False``).

Inputs come from the three synthetic families and an edge family with ω
keys, exact duplicate rows, ``1``/``1.0``/``True`` as keys and values,
empty relations, empty intervals and self-adjustment.  Each traced
run executes every subtree it touches exactly once; without NumPy no span
reads ``input=batch``.
"""

from __future__ import annotations

from typing import List, Tuple
from unittest.mock import patch

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Interval, Schema, TemporalRelation
from repro.columnar.runtime import numpy_available
from repro.engine.database import Database
from repro.engine.executor.base import PhysicalNode
from repro.engine.executor.joins import HashJoinNode
from repro.engine.optimizer.settings import Settings
from repro.obs import trace as obs_trace
from repro.relation.tuple import NULL
from repro.sql.interface import Connection
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_disjoint,
    generate_equal,
    generate_random,
)

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

FAMILIES = {
    "disjoint": generate_disjoint,
    "equal": generate_equal,
    "random": generate_random,
}

SCHEMA = Schema(["cat", "min_dur", "max_dur"])

#: Values that are equal under ``==`` but of three types, another value, ω.
EDGE_VALUES = st.sampled_from([1, 1.0, True, "C0", NULL])


@st.composite
def family_relations(draw) -> Tuple[TemporalRelation, TemporalRelation]:
    family = draw(st.sampled_from(sorted(FAMILIES)))
    size = draw(st.integers(min_value=0, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    config = SyntheticConfig(size=size, categories=5, seed=seed, time_span=200)
    return FAMILIES[family](config=config)


@st.composite
def edge_relations(draw) -> Tuple[TemporalRelation, TemporalRelation]:
    """Small relations over a tiny point domain: empty intervals, exact
    duplicates and mixed-type equal values are the common case."""

    def relation() -> TemporalRelation:
        rows = draw(
            st.lists(
                st.tuples(
                    EDGE_VALUES,
                    EDGE_VALUES,
                    st.integers(min_value=0, max_value=10),
                    st.integers(min_value=0, max_value=3),
                ),
                max_size=10,
            )
        )
        result = TemporalRelation(SCHEMA)  # duplicates allowed
        for cat, value, start, length in rows:
            result.insert((cat, value, 5), Interval(start, start + length))
        return result

    left = relation()
    right = left if draw(st.booleans()) else relation()
    return left, right


def relation_pairs():
    return st.one_of(family_relations(), edge_relations())


def _connection(pair) -> Connection:
    left, right = pair
    connection = Connection(Database())
    connection.register_relation("r", left)
    connection.register_relation("s", right)
    return connection


ALIGN_R = "(r ALIGN s ON r.cat = s.cat)"

#: The second input of a join: the other side's alignment (Table 2's outer
#: join reduction) or the same alignment again (a self-join of one source).
SECOND = {"other": "(s ALIGN r ON s.cat = r.cat)", "same": ALIGN_R}

K3 = (
    "SELECT ABSORB r1.cat, r1.min_dur, r1.max_dur, s1.cat AS s_cat, s1.min_dur AS s_min, "
    "s1.max_dur AS s_max, r1.ts, r1.te "
    "FROM (r ALIGN s ON r.cat = s.cat) r1 LEFT OUTER JOIN (s ALIGN r ON s.cat = r.cat) s1 "
    "ON r1.cat = s1.cat AND r1.ts = s1.ts AND r1.te = s1.te"
)

K4 = (
    "SELECT cat, COUNT(*) c, ts, te FROM (r r1 NORMALIZE r r2 USING(cat)) x "
    "GROUP BY cat, ts, te"
)

GROUPINGS = [
    # Every optional aggregate of the batch form, over the piece bounds.
    f"SELECT cat, COUNT(*) c, MIN(ts) lo, MAX(te) hi, SUM(te) total, COUNT(ts) n "
    f"FROM {ALIGN_R} x GROUP BY cat",
    "SELECT cat, COUNT(*) c, ts, te FROM (r r1 NORMALIZE s s1 USING(cat)) x "
    "GROUP BY cat, ts, te",
    # A value column (of mixed types in the edge family): the batch form
    # declines and the row code runs, over the batch's rows.
    f"SELECT cat, ts, te, COUNT(*) c, MAX(min_dur) m FROM {ALIGN_R} x GROUP BY cat, ts, te",
    # Grouped on the values of two sources at once.
    f"SELECT a.cat, b.cat AS b_cat, COUNT(*) c FROM {ALIGN_R} a JOIN {SECOND['other']} b "
    "ON a.cat = b.cat AND a.ts = b.ts AND a.te = b.te GROUP BY a.cat, b.cat",
]

KINDS = {"inner": "JOIN", "left": "LEFT OUTER JOIN"}


def _join(kind: str, second: str) -> str:
    return (
        f"SELECT * FROM {ALIGN_R} a {KINDS[kind]} {SECOND[second]} b "
        "ON a.cat = b.cat AND a.ts = b.ts AND a.te = b.te"
    )


def _absorb(kind: str, second: str) -> str:
    return (
        f"SELECT ABSORB a.cat, a.min_dur, b.cat AS b_cat, b.max_dur AS b_max, a.ts, a.te "
        f"FROM {ALIGN_R} a {KINDS[kind]} {SECOND[second]} b "
        "ON a.cat = b.cat AND a.ts = b.ts AND a.te = b.te"
    )


def _above_adjustments(span):
    """The spans down to and including each ``ColumnarAdjustment`` (whose
    own inputs may share one scan node between two projections)."""
    yield span
    if not span.label.startswith("ColumnarAdjustment"):
        for child in span.children:
            yield from _above_adjustments(child)


def _traced(physical) -> Tuple[List[tuple], obs_trace.QueryTrace]:
    with obs_trace.collect(physical) as trace:
        rows = physical.execute()
    # Each subtree runs once: no consumer re-pulls a child whose batch it
    # took, whether its batch form ran or declined.
    assert all(span.loops == 1 for span in _above_adjustments(trace.root_span))
    return rows, trace


def _batch_inputs(trace) -> List[str]:
    return [span.label for span in trace.spans() if span.attributes.get("input") == "batch"]


def _check(connection: Connection, sql: str) -> None:
    """The three routes agree, in order."""
    database = connection.database
    logical = connection.logical_plan(sql)
    rows, trace = _traced(database.plan(logical))
    if not numpy_available():
        assert not _batch_inputs(trace)
    with patch.object(PhysicalNode, "batch", lambda self: None):
        declined, declined_trace = _traced(database.plan(logical))
    assert not _batch_inputs(declined_trace)
    assert rows == declined, sql
    assert rows == database.execute(logical, Settings(enable_columnar=False)).rows, sql


class TestBatchEquivalence:
    @SETTINGS
    @given(relation_pairs(), st.sampled_from(GROUPINGS))
    def test_group_by(self, pair, sql):
        _check(_connection(pair), sql)

    @SETTINGS
    @given(relation_pairs(), st.sampled_from(sorted(KINDS)), st.sampled_from(sorted(SECOND)))
    def test_join_on_key_and_period(self, pair, kind, second):
        connection = _connection(pair)
        _check(connection, _join(kind, second))
        # Nothing above the join consumes a batch here: ask for it directly.
        physical = connection.database.plan(connection.logical_plan(_join(kind, second)))
        for join in _walk(physical):
            if isinstance(join, HashJoinNode):
                batch = join.batch()
                assert (batch is not None) == numpy_available()
                if batch is not None:
                    assert batch.materialize() == list(join)

    @SETTINGS
    @given(relation_pairs(), st.sampled_from(sorted(KINDS)), st.sampled_from(sorted(SECOND)))
    def test_absorb_over_the_join(self, pair, kind, second):
        _check(_connection(pair), _absorb(kind, second))

    @SETTINGS
    @given(relation_pairs(), st.sampled_from([K3, K4]))
    def test_analytic_keyed_queries_verbatim(self, pair, sql):
        _check(_connection(pair), sql)


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)
