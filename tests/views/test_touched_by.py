"""Which base tuples a reference batch touches: bisection ≡ all pairs.

``_AdjustedView._touched_by`` finds, per key, the base tuples overlapping a
changed reference interval with one bisection into the changed intervals
sorted by start (and a running maximum of their ends).  The oracle is the
rule it replaced: test every changed interval of a key against every base
tuple of that key.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Interval, Schema, TemporalRelation
from repro.engine.database import Database
from repro.engine.expressions import Column, Comparison
from repro.relation.changelog import Delta
from repro.relation.tuple import TemporalTuple

SCHEMA = Schema(["cat", "v"])

rows = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(0, 30), st.integers(0, 8)), max_size=15
)


def _relation(entries):
    relation = TemporalRelation(SCHEMA)
    for i, (cat, start, length) in enumerate(entries):
        relation.insert((cat, i), Interval(start, start + length))
    return relation


def _all_pairs(view, deltas):
    changed = {}
    for delta in deltas:
        if not delta.tuple.interval.is_empty():
            changed.setdefault(delta.tuple["cat"], []).append(delta.tuple.interval)
    return {
        rowid
        for rowid, x in view._left_items.items()
        if any(x.start < o.end and o.start < x.end for o in changed.get(x["cat"], ()))
    }


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(base=rows, reference=rows, batch=rows)
def test_bisection_touches_exactly_the_all_pairs_set(base, reference, batch):
    database = Database()
    database.register_relation("l", _relation(base))
    database.register_relation("r", _relation(reference))
    views = [
        database.views.create_align_view(
            "va", "l", "r", condition=Comparison("=", Column("l.cat"), Column("r.cat"))
        ),
        database.views.create_normalize_view("vn", "l", "r", attributes=["cat"]),
    ]
    deltas = [
        Delta("+", 100 + i, TemporalTuple(SCHEMA, (cat, -i), Interval(s, s + n)), 0)
        for i, (cat, s, n) in enumerate(batch)
    ]
    for view in views:
        assert view._touched_by(deltas) == _all_pairs(view, deltas)
