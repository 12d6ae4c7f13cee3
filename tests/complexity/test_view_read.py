"""Reading a maintained view does work proportional to the view, not copies.

Counts, not timings: after one base mutation, a view read refreshes the
fragment store and streams it through ``ViewScan``.  It builds no relation
(``TemporalRelation()`` or ``.add``) and no scanned rows of a relation
(:func:`repro.engine.table.build_rows`), and ``EXPLAIN`` plans the read
without refreshing the view it explains.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import Interval
from repro.engine import table as engine_table
from repro.engine.database import Database
from repro.relation.relation import TemporalRelation
from repro.sql import Connection
from repro.workloads.synthetic import SyntheticConfig, generate_random

CONFIG = SyntheticConfig(size=200, categories=5, interval_length=12, time_span=400, seed=3)

VIEWS = {
    "align": "SELECT * FROM (l ALIGN r ON l.cat = r.cat) x",
    "normalize": "SELECT * FROM (l l1 NORMALIZE r r1 USING(cat)) x",
}


@pytest.fixture
def calls(monkeypatch):
    """Call counts of the builders a view read must not reach."""
    counted: Counter = Counter()
    init = TemporalRelation.__init__
    add = TemporalRelation.add
    build_rows = engine_table.build_rows

    def counting_init(self, *args, **kwargs):
        counted["TemporalRelation.__init__"] += 1
        init(self, *args, **kwargs)

    def counting_add(self, tuple_):
        counted["TemporalRelation.add"] += 1
        return add(self, tuple_)

    def counting_build_rows(relation):
        counted["build_rows"] += 1
        return build_rows(relation)

    monkeypatch.setattr(TemporalRelation, "__init__", counting_init)
    monkeypatch.setattr(TemporalRelation, "add", counting_add)
    monkeypatch.setattr(engine_table, "build_rows", counting_build_rows)
    return counted


@pytest.mark.parametrize("kind", sorted(VIEWS))
def test_a_view_read_after_one_mutation_builds_no_relation_and_no_table(kind, calls):
    left, right = generate_random(config=CONFIG)
    database = Database()
    database.register_relation("l", left)
    database.register_relation("r", right)
    connection = Connection(database)
    connection.execute(f"CREATE MATERIALIZED VIEW v AS {VIEWS[kind]}")
    view = database.views.get("v")
    for start in (50, 60):  # the second round reads a view the first refreshed
        database.insert_rows("l", [(("C0001", 3, 9), Interval(start, 120))])
        assert view.pending() == 1

        calls.clear()
        connection.execute("EXPLAIN SELECT * FROM v")
        assert view.pending() == 1
        assert calls == Counter()

        (count,) = connection.execute("SELECT COUNT(*) FROM v").rows[0]
        assert calls == Counter()
        assert view.pending() == 0
        assert count == view.estimated_rows()  # the stored fragment count
