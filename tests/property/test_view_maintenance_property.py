"""Property-based check: maintained views ≡ full recompute (all families).

Hypothesis drives random sequences of sequenced mutations (insert, delete,
update — period-restricted and whole-tuple) against both relations of each
synthetic family and asserts, mid-stream and at the end, that the
incrementally maintained ALIGN and NORMALIZE views equal a from-scratch
adjustment of the mutated relations.  This is the strongest form of the
maintained ≡ recomputed gate: not one mutation stream, but any.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Interval
from repro.core.alignment import align_relation
from repro.core.normalization import normalize
from repro.engine.database import Database
from repro.engine.expressions import Column, Comparison
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_disjoint,
    generate_equal,
    generate_random,
)

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
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


def scratch(database: Database, kind: str):
    left = database.relations["l"]
    right = database.relations["r"]
    if kind == "align":
        return align_relation(left, right, equi_attributes=["cat"], strategy="sweep")
    return normalize(left, right, ["cat"])


@pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
class TestMaintainedViewsEqualRecompute:
    @SETTINGS
    @given(ops=st.lists(mutations(), min_size=1, max_size=8))
    def test_align_view_under_random_mutation_stream(self, family, ops):
        left, right = FAMILIES[family](config=CONFIG)
        database = Database()
        database.register_relation("l", left)
        database.register_relation("r", right)
        view = database.views.create_align_view(
            "v", "l", "r", condition=Comparison("=", Column("l.cat"), Column("r.cat"))
        )
        for index, op in enumerate(ops):
            apply_mutation(database, op)
            if index % 3 == 2:  # also observe mid-stream states
                assert view.result() == scratch(database, "align")
        assert view.result() == scratch(database, "align")

    @SETTINGS
    @given(ops=st.lists(mutations(), min_size=1, max_size=8))
    def test_normalize_view_under_random_mutation_stream(self, family, ops):
        left, right = FAMILIES[family](config=CONFIG)
        database = Database()
        database.register_relation("l", left)
        database.register_relation("r", right)
        view = database.views.create_normalize_view("v", "l", "r", attributes=["cat"])
        for index, op in enumerate(ops):
            apply_mutation(database, op)
            if index % 3 == 2:
                assert view.result() == scratch(database, "normalize")
        assert view.result() == scratch(database, "normalize")
