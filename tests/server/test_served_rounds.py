"""Served rounds: concurrent socket clients ≡ a serial replay in commit order.

A round seeds a durable table, lets N real socket clients commit seeded
transactions of sequenced DML over a deliberately small (hot) key space,
records every commit's ``(epoch, statements)``, and asserts that the served
state equals replaying the recorded commits serially, in commit-epoch order,
on an in-memory twin.  Concurrent execution under snapshot isolation must be
indistinguishable from *that* serial order — equivalence to a serial order,
not to one fixed answer.

Two parametrizations share the round:

* **in-process** — :func:`serve_in_thread` over a durable database, no
  faults; clients retry their own ``ConflictError``\\ s, and the server's
  telemetry (protocol snapshot and ``SHOW METRICS``) must cover the round;
* **subprocess** — ``python -m repro.serve`` with ``net.drop``/``net.stall``
  armed through ``REPRO_FAULTS``; clients go through
  :meth:`Client.run_transaction` (``retry_ambiguous=True`` is sound because
  ``net.drop`` severs *before* executing a request), every armed site must
  show up in ``faults.injected``, and after a SIGKILL the reopened directory
  must equal the replay — recovered state ≡ committed prefix.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import threading
import time
from typing import Callable, List, Tuple

import pytest

import repro
from repro import faults
from repro.client import Client, ConflictError, DisconnectedError, OverloadedError
from repro.engine.database import Database
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.server import serve_in_thread
from repro.sql.interface import Connection
from repro.temporal.interval import Interval

#: Hot key space: small on purpose, so concurrent transactions collide.
KEYS = 8

#: Ceiling on a round's client phase; a client still alive after it is hung.
JOIN_TIMEOUT = 60.0

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

Commit = Tuple[int, List[str]]


@pytest.fixture(autouse=True)
def disarmed():
    faults.disarm()  # the subprocess arms its own faults; this process none
    yield
    faults.disarm()


def _seed_relation() -> TemporalRelation:
    relation = TemporalRelation(Schema(["k", "v"]))
    for i in range(KEYS * 2):
        relation.insert((f"k{i % KEYS}", i), Interval(10 * i, 10 * i + 50))
    return relation


def _seed_database(path: str) -> Database:
    database = Database.open(path)  # sync=True: an fsync per commit
    database.register_relation("t", _seed_relation())
    return database


def _statements(rng: random.Random) -> List[str]:
    """One transaction's writes; self-contained, so a replay reproduces it."""
    statements = []
    for _ in range(1 + rng.randrange(3)):
        key = f"k{rng.randrange(KEYS)}"
        start = rng.randrange(100)
        end = start + 1 + rng.randrange(20)
        kind = rng.randrange(3)
        if kind == 0:
            statements.append(
                f"INSERT INTO t (k, v) VALUES ('{key}', {rng.randrange(1000)}) "
                f"VALID PERIOD [{start}, {end})"
            )
        elif kind == 1:
            statements.append(
                f"UPDATE t SET v = {rng.randrange(1000)} WHERE t.k = '{key}' "
                f"FOR PERIOD [{start}, {end})"
            )
        else:
            statements.append(
                f"DELETE FROM t WHERE t.k = '{key}' FOR PERIOD [{start}, {end})"
            )
    return statements


def _run_round(
    connect: Callable[[], Client],
    commit: Callable[[Client, List[str]], Tuple[int, int]],
    clients: int,
    transactions: int,
    seed: int,
) -> Tuple[List[Commit], int]:
    """Run ``clients`` threads of ``transactions`` seeded commits each.

    ``commit(client, statements)`` returns ``(epoch, conflicts seen)``.
    Returns every recorded commit and the total conflicts clients observed,
    after asserting that no client failed or hung and that the commit order
    is total (unique epochs; a retried COMMIT never applied twice).
    """
    committed: List[Commit] = []
    conflicts = [0]
    errors: List[Exception] = []
    lock = threading.Lock()

    def run_client(index: int) -> None:
        rng = random.Random(seed * 1000 + index)
        try:
            with connect() as client:
                for _ in range(transactions):
                    statements = _statements(rng)
                    epoch, seen = commit(client, statements)
                    with lock:
                        committed.append((epoch, statements))
                        conflicts[0] += seen
        except Exception as error:  # noqa: BLE001 - asserted below
            with lock:
                errors.append(error)

    threads = [
        threading.Thread(target=run_client, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
    assert not any(thread.is_alive() for thread in threads), "a client hung"
    assert not errors, f"{len(errors)} client(s) failed: {errors[0]!r}"
    assert len(committed) == clients * transactions
    epochs = [epoch for epoch, _ in committed]
    assert len(set(epochs)) == len(epochs), "duplicate commit epochs"
    return committed, conflicts[0]


def _replayed(committed: List[Commit]) -> set:
    """The table after replaying ``committed`` serially in epoch order."""
    twin = Database()
    twin.register_relation("t", _seed_relation())
    replay = Connection(twin)
    for _epoch, statements in sorted(committed, key=lambda entry: entry[0]):
        for statement in statements:
            replay.execute(statement)
    return twin.get_relation("t").as_set()


def _commit_retrying_conflicts(client: Client, statements: List[str]) -> Tuple[int, int]:
    conflicts = 0
    while True:
        try:
            client.execute("BEGIN")
            client.execute("SELECT k FROM t")  # a read in every transaction
            for statement in statements:
                client.execute(statement)
            return client.execute("COMMIT").rows[0][1], conflicts
        except ConflictError:
            conflicts += 1


def _commit_through_faults(client: Client, statements: List[str]) -> Tuple[int, int]:
    epoch = client.run_transaction(
        statements,
        max_attempts=60,
        backoff_base=0.002,
        backoff_cap=0.05,
        retry_ambiguous=True,
    )
    return epoch, 0


@pytest.mark.parametrize("clients", [2, 8])
def test_in_process_round_equals_serial_replay(tmp_path, clients):
    database = _seed_database(str(tmp_path / "db"))
    try:
        with serve_in_thread(database) as handle:
            committed, conflicts = _run_round(
                lambda: Client(port=handle.port),
                _commit_retrying_conflicts,
                clients=clients,
                transactions=10,
                seed=clients,
            )
            with Client(port=handle.port) as probe:
                snapshot = probe.metrics()
                shown = {
                    (row[0], row[2]): row[3]
                    for row in probe.execute("SHOW METRICS").rows
                    if row[1] in ("counter", "gauge")
                }
        assert database.get_relation("t").as_set() == _replayed(committed)
    finally:
        database.close()

    # The registry is process-global and cumulative: "covers this round".
    assert snapshot["txn.commits"]["value"] >= len(committed)
    assert snapshot["txn.conflicts"]["value"] >= conflicts
    assert snapshot["wal.fsync_seconds"]["count"] >= 1
    assert shown[("txn.commits", "")] == snapshot["txn.commits"]["value"]


def _serve_with_faults(path: str, spec: str) -> Tuple[subprocess.Popen, str, int]:
    """Boot ``python -m repro.serve`` with ``spec`` armed; return its address.

    The banner must confirm the faults armed: a round against a server that
    ignored its fault spec would prove nothing.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env[faults.ENV_VAR] = spec
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--path", path, "--port", "0"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert process.stdout is not None
    banner: List[str] = []
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        banner.append(line.strip())
        if line.startswith("serving on "):
            if not any(b.startswith("faults armed:") for b in banner):
                break
            host, _, port = line.split()[-1].rpartition(":")
            return process, host, int(port)
    process.kill()
    process.wait()
    process.stdout.close()
    raise AssertionError(f"no armed server came up: {banner}")


def _injected(host: str, port: int) -> dict:
    """``faults.injected`` off the live server; the probe faces the faults too."""
    for _ in range(20):
        try:
            with Client(host, port, timeout=10.0) as probe:
                return probe.metrics().get("faults.injected", {}).get("labels", {})
        except (DisconnectedError, OverloadedError, OSError):
            continue
    raise AssertionError("could not read metrics off the faulted server")


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_faulted_subprocess_round_recovers_the_committed_prefix(tmp_path, seed):
    path = str(tmp_path / "db")
    _seed_database(path).close()
    spec = f"net.drop:every={6 + seed % 5}:after=2,net.stall:every={9 + seed % 4}:ms=2"
    process, host, port = _serve_with_faults(path, spec)
    try:
        committed, _ = _run_round(
            lambda: Client(host, port, timeout=10.0),
            _commit_through_faults,
            clients=3,
            transactions=6,
            seed=seed,
        )
        injected = _injected(host, port)
    finally:
        process.kill()  # SIGKILL: recovery must come from the fsync'd WAL
        process.wait(timeout=30)
        assert process.stdout is not None
        process.stdout.close()

    assert injected.get("net.drop", 0) >= 1 and injected.get("net.stall", 0) >= 1, injected
    # Recover a copy, so a failure can preserve the killed server's files.
    clone = str(tmp_path / "recovered")
    shutil.copytree(path, clone)
    try:
        recovered = Database.open(clone)
        try:
            assert recovered.get_relation("t").as_set() == _replayed(committed)
        finally:
            recovered.close()
    except Exception:
        artifacts = os.environ.get("REPRO_RECOVERY_ARTIFACT_DIR")
        if artifacts:
            shutil.copytree(path, os.path.join(artifacts, f"served-round-seed{seed}"))
        raise
