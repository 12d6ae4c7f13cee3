"""Hardened serving: admission control, idle reaping, loud shutdown, and
the network fault sites, all driven through real sockets."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro import faults
from repro.client import Client, DisconnectedError, OverloadedError, ServerError
from repro.engine.database import Database
from repro.engine.optimizer.settings import Settings
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.server import serve_in_thread
from repro.server.server import ServerThread
from repro.temporal.interval import Interval


@pytest.fixture(autouse=True)
def disarmed():
    faults.disarm()
    yield
    faults.disarm()


@pytest.fixture
def database():
    db = Database()
    relation = TemporalRelation(Schema(["k", "v"]))
    relation.insert(("a", 1), Interval(0, 10))
    db.register_relation("r", relation)
    return db


def _client(handle, timeout=10.0):
    return Client(handle.host, handle.port, timeout=timeout)


class TestAdmissionControl:
    def test_connection_over_the_cap_gets_typed_overloaded(self, database):
        handle = serve_in_thread(database, max_connections=1)
        try:
            with _client(handle) as first:
                assert first.execute("SELECT k FROM r").rows == [["a"]]
                with _client(handle) as second:
                    with pytest.raises(OverloadedError) as rejected:
                        second.execute("SELECT k FROM r")
                    assert rejected.value.kind == "overloaded"
                # The admitted connection keeps working.
                assert first.execute("SELECT v FROM r").rows == [[1]]
            assert handle.server.stats["rejected_overloaded"] == 1
        finally:
            handle.stop()

    def test_slot_frees_when_a_connection_closes(self, database):
        handle = serve_in_thread(database, max_connections=1)
        try:
            with _client(handle) as first:
                first.execute("SELECT k FROM r")
            deadline = time.time() + 5.0
            while time.time() < deadline:  # the server notices EOF async
                try:
                    with _client(handle) as second:
                        second.execute("SELECT k FROM r")
                    break
                except OverloadedError:
                    time.sleep(0.02)
            else:
                pytest.fail("freed connection slot was never reusable")
        finally:
            handle.stop()


class TestIdleReaper:
    def test_idle_connection_is_reaped_and_its_transaction_rolled_back(
        self, database
    ):
        handle = serve_in_thread(database, idle_timeout=0.2)
        try:
            with _client(handle) as idler:
                idler.execute("BEGIN")
                idler.execute(
                    "INSERT INTO r (k, v) VALUES ('ghost', 9) VALID PERIOD [0, 5)"
                )
                deadline = time.time() + 5.0
                while handle.server.stats["reaped_idle"] == 0 and time.time() < deadline:
                    time.sleep(0.05)
                assert handle.server.stats["reaped_idle"] >= 1
                with pytest.raises((DisconnectedError, ConnectionError)):
                    idler.execute("COMMIT")
            with _client(handle) as witness:
                assert witness.execute("SELECT k FROM r WHERE k = 'ghost'").rows == []
        finally:
            handle.stop()

    def test_active_connection_is_not_reaped(self, database):
        handle = serve_in_thread(database, idle_timeout=0.3)
        try:
            with _client(handle) as busy:
                for _ in range(6):
                    assert busy.execute("SELECT k FROM r").rows == [["a"]]
                    time.sleep(0.1)
            assert handle.server.stats["reaped_idle"] == 0
        finally:
            handle.stop()


class TestLoudShutdown:
    def test_stop_raises_when_the_thread_refuses_to_die(self):
        loop = asyncio.new_event_loop()
        try:
            stuck = threading.Thread(target=time.sleep, args=(3.0,), daemon=True)
            stuck.start()
            handle = ServerThread(None, stuck, loop, asyncio.Event())
            with pytest.raises(RuntimeError, match="still alive"):
                handle.stop(timeout=0.1)
            stuck.join()
        finally:
            loop.close()

    def test_stop_is_idempotent_after_clean_shutdown(self, database):
        handle = serve_in_thread(database)
        handle.stop()
        handle.stop()  # the thread is dead; no error


class TestNetworkFaults:
    def test_net_drop_disconnects_without_executing(self, database):
        handle = serve_in_thread(database)
        try:
            faults.arm("net.drop:count=1")
            with _client(handle) as client:
                with pytest.raises(DisconnectedError):
                    client.execute(
                        "INSERT INTO r (k, v) VALUES ('lost', 2) VALID PERIOD [0, 5)"
                    )
                client.reconnect()
                # The dropped request never executed — no half-applied write.
                assert client.execute("SELECT k FROM r WHERE k = 'lost'").rows == []
            assert handle.server.stats["dropped_connections"] == 1
        finally:
            handle.stop()

    def test_net_stall_delays_but_answers(self, database):
        handle = serve_in_thread(database)
        try:
            faults.arm("net.stall:count=1:ms=80")
            with _client(handle) as client:
                started = time.perf_counter()
                assert client.execute("SELECT k FROM r").rows == [["a"]]
                assert time.perf_counter() - started >= 0.07
        finally:
            handle.stop()

    def test_injected_faults_are_observable_in_served_metrics(self, database):
        handle = serve_in_thread(database)
        try:
            faults.arm("net.drop:count=1")
            with _client(handle) as client:
                with pytest.raises(DisconnectedError):
                    client.execute("SELECT k FROM r")
            with _client(handle) as probe:
                injected = probe.metrics()["faults.injected"]["labels"]
                assert injected.get("net.drop", 0) >= 1
        finally:
            handle.stop()


class TestWireTimeout:
    def test_statement_timeout_is_a_typed_wire_error(self):
        db = Database()
        relation = TemporalRelation(Schema(["k", "v"]))
        for index in range(4000):
            relation.insert((f"k{index}", index), Interval(index, index + 2))
        db.register_relation("r", relation)
        # 50 ms: the quadratic self-ALIGN (4000² pairs) exceeds it by orders
        # of magnitude, a plain 4000-row scan finishes far inside it.
        db.settings = Settings(enable_columnar=False, statement_timeout_ms=50.0)
        handle = serve_in_thread(db)
        try:
            with _client(handle) as client:
                with pytest.raises(ServerError) as timed_out:
                    client.execute("SELECT * FROM (r ALIGN r ON 1 = 1) q")
                assert timed_out.value.kind == "timeout"
                # The session survives and answers fast statements.
                assert len(client.execute("SELECT k FROM r WHERE v = 0")) == 1
        finally:
            handle.stop()
