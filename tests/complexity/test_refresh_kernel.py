"""A view refresh hands the kernel the changed tuples and their key's rows.

Counts, not timings: after one base insert, refreshing a keyed ALIGN or
NORMALIZE view makes exactly one kernel call.  Its argument side is the one
inserted tuple; its reference side is the reference rows with that tuple's
key, and no others.  At n and 4n tuples, with the number of keys growing
with n, that reference side keeps its size.  The refresh reads neither
relation whole either: the rows of each key are grouped once per reference
state, in a cached entry beside its frame, and a residual θ sees only the
kept reference tuples.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro import Interval
from repro.columnar import kernels
from repro.engine.database import Database
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.sql import Connection

#: Reference rows per key, at every size.
PER_KEY = 8

VIEWS = {
    "align": ("SELECT * FROM (l ALIGN r ON l.k = r.k) x", "align_pieces"),
    "align_residual": ("SELECT * FROM (l ALIGN r ON l.k = r.k AND l.x <= r.x) x", "align_pieces"),
    "normalize": (
        "SELECT * FROM (l l1 NORMALIZE r r1 USING(k)) x",
        "normalize_pieces_from_intervals",
    ),
}


def _relation(n: int) -> TemporalRelation:
    relation = TemporalRelation(Schema(["k", "x"]))
    for i in range(n):
        relation.insert((f"k{i % (n // PER_KEY)}", i), Interval(i, i + 30))
    return relation


def _refresh_calls(kind: str, n: int, monkeypatch) -> List[Tuple[int, int]]:
    """``(argument rows, reference rows)`` of each kernel call one refresh makes."""
    database = Database()
    database.register_relation("l", _relation(n))
    database.register_relation("r", _relation(n))
    connection = Connection(database)
    sql, kernel_name = VIEWS[kind]
    connection.execute(f"CREATE MATERIALIZED VIEW v AS {sql}")
    database.insert_rows("l", [(("k0", -1), Interval(5, 50))])

    calls: List[Tuple[int, int]] = []
    kernel = getattr(kernels, kernel_name)

    def counting(l_starts, l_ends, l_codes, r_starts, r_ends, r_codes, **options):
        calls.append((len(l_starts), len(r_starts)))
        return kernel(l_starts, l_ends, l_codes, r_starts, r_ends, r_codes, **options)

    def whole(relation):
        raise AssertionError("the refresh read a whole relation")

    monkeypatch.setattr(kernels, kernel_name, counting)
    monkeypatch.setattr(TemporalRelation, "__iter__", whole)
    monkeypatch.setattr(TemporalRelation, "tuples", whole)
    assert database.views.get("v").refresh() == "incremental"
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("kind", sorted(VIEWS))
def test_a_refresh_after_one_insert_reads_only_the_inserted_key(kind, monkeypatch):
    small = _refresh_calls(kind, 200, monkeypatch)
    large = _refresh_calls(kind, 800, monkeypatch)
    assert small == [(1, PER_KEY)]
    assert large == small
