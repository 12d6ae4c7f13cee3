"""Seeded inputs of every workload, generated by the benchmark itself.

The relation families are this benchmark's own copy of the paper's synthetic
datasets (Sec. 7.4/7.5) — deliberately *not* ``repro.workloads``, so a change
under ``src/`` cannot alter the load a later commit is measured with.  Every
generator returns plain rows ``((values...), start, end)`` or SQL strings and
draws from a :class:`random.Random` seeded with a string, which CPython hashes
with SHA-512: the same ``--seed`` gives byte-identical inputs in any process.

Relations are duplicate free (Sec. 3.1 of the paper): no two tuples of one
relation share their value triple, so the engine's ``ABSORB`` and the
NOT-EXISTS baseline, which does not absorb, agree on every generated input.
"""

from __future__ import annotations

import random
from typing import Iterator, List, NamedTuple, Sequence, Set, Tuple

SCHEMA = ("cat", "min_dur", "max_dur")
TIME_SPAN = 16 * 365
MAX_LENGTH = 30

Row = Tuple[Tuple, int, int]


def stream(seed: int, purpose: str) -> random.Random:
    """An independent, reproducible random stream for one purpose."""
    return random.Random(f"perf:{seed}:{purpose}")


def category(index: int) -> str:
    return f"C{index:05d}"


def _values(rng: random.Random, categories: int, seen: Set[Tuple]) -> Tuple:
    while True:
        low = rng.randint(1, 60)
        values = (category(rng.randrange(categories)), low, low + rng.randint(0, 300))
        if values not in seen:
            seen.add(values)
            return values


def drand(n: int, categories: int, rng: random.Random) -> Tuple[List[Row], List[Row]]:
    """``Drand``: uniform start points, durations and categories."""
    pair = []
    for _ in range(2):
        seen: Set[Tuple] = set()
        rows = []
        for _ in range(n):
            start = rng.randrange(TIME_SPAN)
            end = start + 1 + rng.randrange(MAX_LENGTH)
            rows.append((_values(rng, categories, seen), start, end))
        pair.append(rows)
    return pair[0], pair[1]


def ddisj(n: int, categories: int, rng: random.Random) -> Tuple[List[Row], List[Row]]:
    """``Ddisj``: all ``2n`` intervals pairwise disjoint, laid back to back
    and dealt to the two relations alternately."""
    pair: Tuple[List[Row], List[Row]] = ([], [])
    seen: Tuple[Set[Tuple], Set[Tuple]] = (set(), set())
    cursor = 0
    for index in range(2 * n):
        side = (index + index // 2) % 2
        length = 1 + rng.randrange(MAX_LENGTH)
        pair[side].append((_values(rng, categories, seen[side]), cursor, cursor + length))
        cursor += length + 1
    return pair


def deq(n: int, categories: int, rng: random.Random) -> Tuple[List[Row], List[Row]]:
    """``Deq``: every tuple of both relations carries the same interval."""
    pair = []
    for _ in range(2):
        seen: Set[Tuple] = set()
        pair.append([(_values(rng, categories, seen), 0, MAX_LENGTH) for _ in range(n)])
    return pair[0], pair[1]


FAMILIES = {"rand": drand, "disj": ddisj, "eq": deq}


def to_relation(rows: Sequence[Row], attributes: Sequence[str] = SCHEMA):
    from repro import Interval, Schema, TemporalRelation

    relation = TemporalRelation(Schema(list(attributes)))
    for values, start, end in rows:
        relation.insert(values, Interval(start, end))
    return relation


# -- served_mixed -------------------------------------------------------------

#: Valid-time axis of the served tables; every period lies inside it.
SERVED_SPAN = 100
#: Inserted ``v`` values are ``CLIENT_BASE * (client + 1) + sequence`` and an
#: UPDATE adds ``UPDATE_STEP``, so ``v mod UPDATE_STEP`` identifies a tuple for
#: life and two tuples of one key never become value equivalent.
CLIENT_BASE = 1_000_000
UPDATE_STEP = 10_000_000
VERSIONS = 5


def key(index: int) -> str:
    return f"k{index:05d}"


def served_tables(keys: int, rng: random.Random) -> Tuple[List[Row], List[Row]]:
    """``t(k, v)``: ``VERSIONS`` consecutive versions per key; ``u(k, w)``: one
    reference period per key."""
    t_rows: List[Row] = []
    u_rows: List[Row] = []
    for index in range(keys):
        cuts = [0] + sorted(rng.sample(range(1, SERVED_SPAN), VERSIONS - 1)) + [SERVED_SPAN]
        for version in range(VERSIONS):
            t_rows.append(((key(index), index * 10 + version), cuts[version], cuts[version + 1]))
        start = rng.randrange(SERVED_SPAN // 2)
        end = start + 10 + rng.randrange(SERVED_SPAN // 2 - 10)
        u_rows.append(((key(index), index), start, end))
    return t_rows, u_rows


class Op(NamedTuple):
    """One client operation: a read statement or a whole write transaction."""

    kind: str  # "point" | "align" | "view" | "txn"
    #: The key a read asks for (every returned row must carry it); "" for txn.
    key: str
    statements: Tuple[str, ...]


def point_select(k: str) -> str:
    return f"SELECT k, v, ts, te FROM t WHERE t.k = '{k}'"


def align_select(k: str) -> str:
    return (
        f"WITH a AS (SELECT * FROM t WHERE t.k = '{k}'), "
        f"b AS (SELECT * FROM u WHERE u.k = '{k}') "
        "SELECT * FROM (a ALIGN b ON a.k = b.k) x"
    )


def view_select(k: str) -> str:
    return f"SELECT k, v, ts, te FROM v WHERE v.k = '{k}'"


def _period(rng: random.Random, span: int, longest: int) -> Tuple[int, int]:
    start = rng.randrange(span - 1)
    return start, min(span, start + 1 + rng.randrange(longest))


def served_ops(seed: int, client: int, keys: int) -> Iterator[Op]:
    """The endless seeded operation stream of one client connection.

    45 % point selects, 10 % keyed ALIGN sub-queries, 5 % view reads, 40 %
    write transactions of 1–3 sequenced statements.  Write statements read
    nothing, so replaying a transaction's statements serially reproduces it.
    """
    rng = stream(seed, f"served-client-{client}")
    sequence = 0
    while True:
        draw = rng.random()
        k = key(rng.randrange(keys))
        if draw < 0.45:
            yield Op("point", k, (point_select(k),))
        elif draw < 0.55:
            yield Op("align", k, (align_select(k),))
        elif draw < 0.60:
            yield Op("view", k, (view_select(k),))
        else:
            statements = []
            for _ in range(1 + rng.randrange(3)):
                k = key(rng.randrange(keys))
                start, end = _period(rng, SERVED_SPAN, 20)
                kind = rng.randrange(3)
                if kind == 0:
                    sequence += 1
                    value = CLIENT_BASE * (client + 1) + sequence
                    statements.append(
                        f"INSERT INTO t (k, v) VALUES ('{k}', {value}) "
                        f"VALID PERIOD [{start}, {end})"
                    )
                elif kind == 1:
                    statements.append(
                        f"UPDATE t SET v = v + {UPDATE_STEP} WHERE t.k = '{k}' "
                        f"FOR PERIOD [{start}, {end})"
                    )
                else:
                    statements.append(
                        f"DELETE FROM t WHERE t.k = '{k}' FOR PERIOD [{start}, {end})"
                    )
            yield Op("txn", "", tuple(statements))


# -- write_recover ------------------------------------------------------------


class Mutation(NamedTuple):
    sql: str
    #: Bytes of the values and the period the statement writes (8 per integer).
    user_bytes: int


def insert_mutation(rng: random.Random, categories: int, marker: int) -> Mutation:
    cat = category(rng.randrange(categories))
    start, end = _period(rng, TIME_SPAN, MAX_LENGTH)
    # ``max_dur`` above every generated bound: inserted tuples stay distinct.
    return Mutation(
        f"INSERT INTO r (cat, min_dur, max_dur) VALUES ('{cat}', {rng.randint(1, 60)}, "
        f"{1000 + marker}) VALID PERIOD [{start}, {end})",
        len(cat) + 8 + 8 + 16,
    )


def mutations(seed: int, categories: int) -> Iterator[Mutation]:
    """The endless seeded stream of autocommitted sequenced mutations on ``r``:
    a third each INSERT, UPDATE and DELETE, the latter two over periods long
    enough to touch a tuple or two of their category."""
    rng = stream(seed, "mutations")
    marker = 0
    while True:
        kind = rng.randrange(3)
        if kind == 0:
            marker += 1
            yield insert_mutation(rng, categories, marker)
            continue
        cat = category(rng.randrange(categories))
        start, end = _period(rng, TIME_SPAN, 200)
        if kind == 1:
            yield Mutation(
                f"UPDATE r SET min_dur = min_dur + 100 WHERE r.cat = '{cat}' "
                f"FOR PERIOD [{start}, {end})",
                8 + 16,
            )
        else:
            yield Mutation(
                f"DELETE FROM r WHERE r.cat = '{cat}' FOR PERIOD [{start}, {end})", 16
            )
