"""The one log order of a mutation batch, produced and parsed back.

``log_order`` writes a batch as the inserted rows' ``+`` first, then each
removed row's ``-`` directly followed by its fragments' ``+``;
``parse_log_order`` reads that back into ``(removed rowid, fragment rows)``
pairs and the inserted rows.  Every batch a live relation logs must survive
the round trip unchanged, and each parsed fragment must sit where the row it
replaced sat — the fact WAL replay rebuilds the layout from.
"""

from __future__ import annotations

from repro import Interval, Schema, TemporalRelation
from repro.relation.relation import log_order, parse_log_order
from repro.relation.tuple import TemporalTuple

SCHEMA = Schema(["k", "x"])


def _t(k, x, start, end):
    return TemporalTuple(SCHEMA, (k, x), Interval(start, end))


def test_inserts_removals_and_replacements_round_trip():
    removed = [
        ((1, _t("a", 1, 0, 9)), [(10, _t("a", 2, 0, 4)), (11, _t("a", 1, 4, 9))]),
        ((2, _t("b", 1, 0, 9)), []),
        ((3, _t("c", 1, 0, 9)), [(12, _t("c", 5, 0, 9))]),
    ]
    appended = [(13, _t("d", 1, 3, 4)), (14, _t("e", 1, 5, 6))]
    records = log_order(removed, appended)
    assert [(sign, rowid) for sign, rowid, _ in records] == [
        ("+", 13), ("+", 14), ("-", 1), ("+", 10), ("+", 11), ("-", 2), ("-", 3), ("+", 12)
    ]
    expected = ([(rowid, fragments) for (rowid, _), fragments in removed], appended)
    assert parse_log_order(records) == expected
    # Versioned records (a WAL batch, a removal without its tuple) parse alike.
    versioned = [
        (sign, rowid, None if sign == "-" else t, version)
        for version, (sign, rowid, t) in enumerate(records, 1)
    ]
    assert parse_log_order(versioned) == expected


def test_every_batch_a_live_relation_logs_round_trips():
    relation = TemporalRelation(SCHEMA)
    relation.enable_change_tracking()
    for i, k in enumerate("abc"):
        relation.insert((k, i), Interval(0, 30))
    statements = [
        # replace-and-insert: a transaction commit's shape
        lambda r: r.apply_effects(
            [(r.rows_with_ids()[1][0], [_t("b", 7, 0, 10), _t("b", 8, 10, 30)])],
            [_t("z", 0, 1, 2)],
        ),
        lambda r: r.update({"x": 20}, period=Interval(5, 15)),
        lambda r: r.update({"x": 21}, period=Interval(7, 8)),  # splits fragments again
        lambda r: r.delete(lambda t: t["k"] == "c", period=Interval(0, 6)),
        lambda r: r.delete(lambda t: t["k"] == "z"),  # a plain removal of an insert
    ]
    for statement in statements:
        before = relation.rows_with_ids()
        deltas = statement(relation)
        records = [(d.sign, d.rowid, d.tuple) for d in deltas]
        removed, appended = parse_log_order(records)
        live = dict(before)
        relogged = log_order([((rowid, live[rowid]), rows) for rowid, rows in removed], appended)
        assert relogged == records
        # Fragments take the removed row's position, inserts append.
        expected = []
        replaced = dict(removed)
        for rowid, t in before:
            expected.extend(replaced.get(rowid, [(rowid, t)]))
        expected.extend(appended)
        assert relation.rows_with_ids() == expected
