"""Property-based check: maintained views ≡ full recompute (all families).

Hypothesis drives random sequences of sequenced mutations (insert, delete,
update — period-restricted and whole-tuple) against both relations of each
synthetic family and asserts, mid-stream and at the end, that every
maintained view shape — keyed and unkeyed ALIGN, ALIGN with a θ beyond its
key (as a residual condition or as an opaque callable), keyed and unkeyed
NORMALIZE, self-NORMALIZE — equals a from-scratch adjustment of the mutated
relations, both as a relation (``result()``) and as the bag of rows
``SELECT * FROM v`` reads through ``ViewScan``.  The cost model is pinned to
incremental maintenance, so every refresh exercises the delta rules rather
than a recompute.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Interval
from repro.core.alignment import align_relation
from repro.core.normalization import normalize
from repro.engine.database import Database
from repro.engine.expressions import And, Column, Comparison
from repro.engine.optimizer import cost
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_disjoint,
    generate_equal,
    generate_random,
)

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

CONFIG = SyntheticConfig(size=18, categories=3, interval_length=10, time_span=80, seed=11)

FAMILIES = {
    "disjoint": generate_disjoint,
    "equal": generate_equal,
    "random": generate_random,
}


@st.composite
def periods(draw) -> Interval:
    start = draw(st.integers(min_value=0, max_value=90))
    length = draw(st.integers(min_value=1, max_value=40))
    return Interval(start, start + length)


@st.composite
def mutations(draw):
    """One mutation op: ``(kind, target relation, parameters)``."""
    target = draw(st.sampled_from(["l", "r"]))
    kind = draw(st.sampled_from(["insert", "delete", "delete_period", "update"]))
    category = f"C{draw(st.integers(min_value=0, max_value=2)):04d}"
    if kind == "insert":
        return (kind, target, (category, draw(periods())))
    if kind == "delete":
        return (kind, target, (category,))
    if kind == "delete_period":
        return (kind, target, (draw(periods()),))
    return (kind, target, (category, draw(periods()), draw(st.integers(0, 99))))


def apply_mutation(database: Database, op) -> None:
    kind, target, params = op
    if kind == "insert":
        category, interval = params
        database.insert_rows(target, [((category, 1, 5), interval)])
    elif kind == "delete":
        (category,) = params
        database.delete_rows(target, predicate=lambda t: t["cat"] == category)
    elif kind == "delete_period":
        (period,) = params
        database.delete_rows(target, period=period)
    else:
        category, period, value = params
        database.update_rows(
            target,
            {"min_dur": value},
            predicate=lambda t: t["cat"] == category,
            period=period,
        )


CAT = Comparison("=", Column("l.cat"), Column("r.cat"))
#: A θ the key codes decide only in part: the rest runs per candidate pair.
CAT_AND_DURATIONS = And(CAT, Comparison("<=", Column("l.min_dur"), Column("r.max_dur")))


def durations(x, y) -> bool:
    return x["min_dur"] <= y["max_dur"]


def parities(x, y) -> bool:
    return (x["min_dur"] + y["max_dur"]) % 2 == 0

#: View shape -> (create the view ``v``, compute its contents from scratch).
SHAPES = {
    "align": (
        lambda db: db.views.create_align_view("v", "l", "r", condition=CAT),
        lambda left, right: align_relation(
            left, right, equi_attributes=["cat"], strategy="sweep"
        ),
    ),
    "align_residual": (
        lambda db: db.views.create_align_view("v", "l", "r", condition=CAT_AND_DURATIONS),
        lambda left, right: align_relation(
            left, right, theta=durations, equi_attributes=["cat"], strategy="sweep"
        ),
    ),
    "align_opaque": (
        lambda db: db.views.create_align_view(
            "v", "l", "r", theta=parities, equi_attributes=["cat"]
        ),
        lambda left, right: align_relation(
            left, right, theta=parities, equi_attributes=["cat"], strategy="sweep"
        ),
    ),
    "align_unkeyed": (
        lambda db: db.views.create_align_view("v", "l", "r"),
        lambda left, right: align_relation(left, right, strategy="sweep"),
    ),
    "normalize": (
        lambda db: db.views.create_normalize_view("v", "l", "r", attributes=["cat"]),
        lambda left, right: normalize(left, right, ["cat"], strategy="sweep"),
    ),
    "normalize_unkeyed": (
        lambda db: db.views.create_normalize_view("v", "l", "r"),
        lambda left, right: normalize(left, right, strategy="sweep"),
    ),
    "self_normalize": (
        lambda db: db.views.create_normalize_view("v", "l", "l", attributes=["cat"]),
        lambda left, right: normalize(left, left, ["cat"], strategy="sweep"),
    ),
}


def assert_view_equals_scratch(database: Database, view, shape: str) -> None:
    expected = SHAPES[shape][1](database.relations["l"], database.relations["r"])
    assert view.result() == expected
    rows = database.query("SELECT * FROM v").rows
    assert Counter(rows) == Counter(t.values + (t.start, t.end) for t in expected)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("family", sorted(FAMILIES))
@SETTINGS
@given(ops=st.lists(mutations(), min_size=1, max_size=8))
def test_maintained_view_under_random_mutation_stream(family, shape, ops):
    left, right = FAMILIES[family](config=CONFIG)
    database = Database()
    database.register_relation("l", left)
    database.register_relation("r", right)
    view = SHAPES[shape][0](database)
    with mock.patch.object(cost, "maintenance_strategy", lambda *_sizes: "incremental"):
        for index, op in enumerate(ops):
            apply_mutation(database, op)
            if index % 3 == 2:  # also observe mid-stream states
                assert_view_equals_scratch(database, view, shape)
        assert_view_equals_scratch(database, view, shape)
    assert view.stats["recomputed"] == 1  # the initial build only
