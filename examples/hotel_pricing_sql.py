"""The same hotel queries through the SQL front end (Sec. 6.2 / 6.3).

Shows the temporal SQL extensions — ``ALIGN``, ``NORMALIZE ... USING()`` and
``ABSORB`` — and the physical plan the engine chooses (EXPLAIN-style, with
its row and cost estimates): each adjustment is one ``ColumnarAdjustment``
node, and the join on the aligned intervals is a hash join, picked by the
planner's join rule because its condition has equality keys.  The last
section mutates the price relation with a *sequenced* ``UPDATE ... FOR
PERIOD`` (the price rows are split at the period boundaries; only the
fragment inside the period changes) and re-runs Q1 against the new state.

Run with::

    python examples/hotel_pricing_sql.py
"""

from repro.engine import Database
from repro.sql import Connection
from repro.workloads.hotel import HOTEL_TIMELINE, hotel_prices, hotel_reservations

#: Query Q1 of the paper, written with the ALIGN extension (Sec. 6.2).
Q1_SQL = """
WITH ru AS (SELECT ts us, te ue, * FROM r)
SELECT ABSORB n, a, min, max, ru1.ts, ru1.te
FROM (ru ALIGN p ON DUR(us, ue) BETWEEN min AND max) ru1
LEFT OUTER JOIN
     (p ALIGN ru ON DUR(us, ue) BETWEEN min AND max) p1
ON DUR(us, ue) BETWEEN min AND max AND ru1.ts = p1.ts AND ru1.te = p1.te
"""

#: Query Q2 of the paper, written with the NORMALIZE extension (Sec. 6.3).
Q2_SQL = """
WITH ru AS (SELECT ts us, te ue, * FROM r)
SELECT AVG(DUR(us, ue)) AS avg_dur, ts, te
FROM (ru r1 NORMALIZE ru r2 USING()) n
GROUP BY ts, te
"""


def main() -> None:
    database = Database()
    connection = Connection(database)
    connection.register_relation("r", hotel_reservations())
    connection.register_relation("p", hotel_prices())

    print("Q1 (ALIGN + LEFT OUTER JOIN + ABSORB):")
    print(connection.query_relation(Q1_SQL).pretty(HOTEL_TIMELINE))

    print("\nPhysical plan of Q1 (note the Adjustment nodes and the planned joins):")
    print(connection.explain(Q1_SQL))

    print("\nQ2 (NORMALIZE + GROUP BY ts, te):")
    print(connection.query_relation(Q2_SQL).pretty(HOTEL_TIMELINE))

    print("\nPhysical plan of Q2:")
    print(connection.explain(Q2_SQL))

    # -- a price change, stated as sequenced temporal DML ----------------------
    # From 2012/10 the 40/month band becomes 45/month.  FOR PERIOD splits the
    # affected price tuples at the boundary: the [2012/1, 2012/6) tuple is
    # untouched, the [2012/10, 2013/1) tuple is rewritten in place.
    update = "UPDATE p SET a = a + 5 WHERE a = 40 FOR PERIOD [9, 12)"
    print(f"\n{update}")
    print(connection.execute(update).pretty())

    print("\nPrices after the sequenced update:")
    print(connection.execute("SELECT a, min, max, ts, te FROM p ORDER BY ts, a").pretty())

    print("\nQ1 against the updated prices (Ann's autumn stay now costs 45):")
    print(connection.query_relation(Q1_SQL).pretty(HOTEL_TIMELINE))


if __name__ == "__main__":
    main()
