"""The asyncio network front end, driven through real sockets.

``serve_in_thread`` runs the server on an ephemeral port in a daemon thread;
:class:`repro.client.Client` connects like any external process would.  The
contracts under test: per-connection sessions (transaction state is the
connection's, invisible to others until commit), typed error kinds on the
wire, disconnect/shutdown teardown, and the conflict-retry loop.
"""

from __future__ import annotations

import time

import pytest

from repro.client import Client, ConflictError, ServerError
from repro.engine.database import Database
from repro.engine.table import Table
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.server import serve_in_thread
from repro.temporal.interval import Interval


@pytest.fixture
def database():
    db = Database()
    relation = TemporalRelation(Schema(["k", "v"]))
    relation.insert(("a", 1), Interval(0, 10))
    db.register_relation("r", relation)
    return db


@pytest.fixture
def server(database):
    handle = serve_in_thread(database)
    yield handle
    handle.stop()


def _client(server):
    return Client(server.host, server.port, timeout=10.0)


class TestRoundTrip:
    def test_select_and_insert(self, server):
        with _client(server) as client:
            assert client.execute("SELECT k, v FROM r").rows == [["a", 1]]
            status = client.execute(
                "INSERT INTO r (k, v) VALUES ('b', 2) VALID PERIOD [0, 5)"
            )
            assert status.rows[0][:2] == ["INSERT", "r"]
            assert len(client.execute("SELECT k FROM r")) == 2

    def test_error_kinds_on_the_wire(self, server):
        with _client(server) as client:
            with pytest.raises(ServerError) as syntax:
                client.execute("SELEKT k FROM r")
            assert syntax.value.kind == "syntax"
            with pytest.raises(ServerError) as missing:
                client.execute("SELECT k FROM nope")
            assert missing.value.kind in ("query", "schema")
            with pytest.raises(ServerError) as txn:
                client.execute("COMMIT")
            assert txn.value.kind == "transaction"

    def test_aggregate_over_a_mixed_column_is_a_typed_error(self, database, server):
        database.get_relation("r").insert(("a", "z"), Interval(0, 10))
        with _client(server) as client:
            assert client.execute("SELECT k, MIN(v) m FROM r GROUP BY k").rows == [["a", 1]]
            with pytest.raises(ServerError) as mixed:
                client.execute("SELECT k, SUM(v) s FROM r GROUP BY k")
            assert mixed.value.kind == "query"

    def test_mixed_type_operands_are_query_errors_or_ordered(self, server):
        with _client(server) as client:
            assert client.execute("SELECT k FROM r WHERE r.v > 'a'").rows == []
            with pytest.raises(ServerError) as arithmetic:
                client.execute("SELECT k FROM r WHERE r.k / 2 = 1")
            assert arithmetic.value.kind == "query"

    def test_a_null_argument_bound_is_a_query_error(self, database, server):
        # An ω interval bound in an ALIGN/NORMALIZE argument: typed, and it
        # names the column, not an ``internal`` TypeError.
        database.register_table(Table("n", ["k", "ts", "te"], [("a", None, 10), ("b", 0, 5)]))
        with _client(server) as client:
            for sql, column in (
                ("SELECT * FROM (n ALIGN r ON n.k = r.k) x", "'n.ts'"),
                ("SELECT * FROM (n n1 NORMALIZE r r1 USING(k)) x", "'n1.ts'"),
            ):
                with pytest.raises(ServerError) as null_bound:
                    client.execute(sql)
                assert null_bound.value.kind == "query"
                assert column in str(null_bound.value)

    def test_an_error_does_not_kill_the_connection(self, server):
        with _client(server) as client:
            with pytest.raises(ServerError):
                client.execute("SELEKT")
            assert client.execute("SELECT k, v FROM r").rows == [["a", 1]]


class TestSessions:
    def test_transactions_are_per_connection(self, server):
        with _client(server) as writer, _client(server) as reader:
            writer.execute("BEGIN")
            writer.execute("INSERT INTO r (k, v) VALUES ('b', 2) VALID PERIOD [0, 5)")
            # The other connection sees committed state only...
            assert len(reader.execute("SELECT k FROM r")) == 1
            writer.execute("COMMIT")
            assert len(reader.execute("SELECT k FROM r")) == 2

    def test_conflict_is_retryable_over_the_wire(self, server):
        with _client(server) as first, _client(server) as second:
            first.execute("BEGIN")
            second.execute("BEGIN")
            first.execute("UPDATE r SET v = 10 WHERE k = 'a'")
            second.execute("UPDATE r SET v = 20 WHERE k = 'a'")
            first.execute("COMMIT")
            with pytest.raises(ConflictError) as conflict:
                second.execute("COMMIT")
            assert conflict.value.kind == "conflict"
            # run_transaction retries from BEGIN and succeeds this time.
            epoch = second.run_transaction(["UPDATE r SET v = 20 WHERE k = 'a'"])
            assert isinstance(epoch, int)
            assert second.execute("SELECT v FROM r").rows == [[20]]

    def test_disconnect_mid_transaction_rolls_back(self, server, database):
        client = _client(server)
        client.execute("BEGIN")
        client.execute("DELETE FROM r WHERE k = 'a'")
        client.close()
        deadline = time.monotonic() + 10.0
        while database.transactions.active and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not database.transactions.active
        assert len(database.get_relation("r")) == 1
        assert server.server.stats["aborted_on_disconnect"] == 1


class TestShutdown:
    def test_stop_aborts_open_transactions(self, database):
        handle = serve_in_thread(database)
        client = Client(handle.host, handle.port, timeout=10.0)
        client.execute("BEGIN")
        client.execute("DELETE FROM r WHERE k = 'a'")
        handle.stop()
        assert not database.transactions.active
        assert len(database.get_relation("r")) == 1
        assert handle.server.stats["aborted_on_disconnect"] == 1
        client.close()

    def test_stop_is_idempotent(self, database):
        handle = serve_in_thread(database)
        handle.stop()
        handle.stop()
