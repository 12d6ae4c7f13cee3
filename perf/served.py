"""``served_mixed``: a ``repro.serve`` subprocess under two closed-loop clients.

Set-up prepares a durable, fsync-per-commit database (tables ``t`` and ``u``,
the incremental ALIGN view ``v``), boots ``python -m repro.serve`` on it and
connects the clients.  Each client — a thread of this one generator process —
then sends its seeded operation stream, the next operation only after the
previous one was answered, until the measurement time is used.

Correctness is the admissible-outcomes view of serving: the final served
state must equal *some* serial replay of the committed transactions.  The
replay runs in commit-epoch order through ``Session.execute`` on an in-memory
twin, and the order that witnessed the equality is written out.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.client import Client, ConflictError, ServerError
from repro.engine.database import Database
from repro.sql.analyzer import Analyzer
from repro.sql.interface import Connection
from repro.sql.parser import parse

from perf import config, datagen
from perf.common import (
    SRC, Outcome, kernel_seconds, median, metric_delta, ms, peak_rss_mb, percentile,
    process_peak_rss_mb, strategy_labels, tail, timed_setups,
)
from perf.trace import Recorder

VIEW_SQL = "SELECT * FROM (t ALIGN u ON t.k = u.k) x"
CREATE_VIEW = f"CREATE MATERIALIZED VIEW v AS {VIEW_SQL}"
ALL_T = "SELECT k, v, ts, te FROM t"
ALL_V = "SELECT * FROM v"
ONE_ROW = "SELECT x FROM one"
READ_KINDS = ("point", "align", "view")
#: Read statements per client the twin replays for the per-layer split.
READ_REPLAY = 100
#: ``v`` values of the twin's probe inserts: no client's base reaches them.
PROBE_BASE = 9 * datagen.CLIENT_BASE


def populate(database: Database, seed: int, keys: int) -> None:
    """Register ``t``, ``u`` and the one-row table (no view yet)."""
    t_rows, u_rows = datagen.served_tables(keys, datagen.stream(seed, "served-tables"))
    database.register_relation("t", datagen.to_relation(t_rows, ("k", "v")))
    database.register_relation("u", datagen.to_relation(u_rows, ("k", "w")))
    database.register_relation("one", datagen.to_relation([((1,), 0, 1)], ("x",)))


@dataclass
class Served:
    path: str
    process: subprocess.Popen
    clients: List[Client]


def boot(path: str) -> Tuple[subprocess.Popen, int]:
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in environment.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--path", path, "--port", "0"],
        stdout=subprocess.PIPE, text=True, env=environment,
    )
    line = process.stdout.readline() if process.stdout else ""
    if not line.startswith("serving on "):
        stop(process)
        raise RuntimeError(f"repro.serve did not start: {line!r}")
    return process, int(line.rsplit(":", 1)[1])


def stop(process: subprocess.Popen) -> None:
    """SIGTERM (the server checkpoints and releases its lock), then wait."""
    if process.poll() is None:
        process.terminate()
    try:
        process.wait(timeout=20)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    if process.stdout:
        process.stdout.close()


def teardown(served: Served) -> None:
    for client in served.clients:
        client.close()
    stop(served.process)
    shutil.rmtree(served.path, ignore_errors=True)


@dataclass
class ClientLog:
    """What one client thread observed."""

    #: (kind, seconds, traced) of every completed operation.
    latencies: List[Tuple[str, float, bool]] = field(default_factory=list)
    #: (commit epoch, client, sequence, statements) of every commit.
    commits: List[Tuple[int, int, int, Tuple[str, ...]]] = field(default_factory=list)
    reads: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    conflicts: int = 0
    finished: float = 0.0
    error: Optional[BaseException] = None


def perform(execute: Callable[[str], Any], op: datagen.Op, log: ClientLog,
            client: int, sequence: int) -> bool:
    """Run one operation to its answer; ``False`` when it failed."""
    if op.kind != "txn":
        sql = op.statements[0]
        log.reads.append(sql)
        return all(row[0] == op.key for row in execute(sql).rows)
    for _attempt in range(config.MAX_ATTEMPTS):
        try:
            execute("BEGIN")
            for statement in op.statements:
                execute(statement)
            epoch = execute("COMMIT").rows[0][1]
        except ConflictError:  # raised by COMMIT, which also ended the transaction
            log.conflicts += 1
            continue
        log.commits.append((epoch, client, sequence, op.statements))
        return True
    return False


def client_loop(index: int, client: Client, seed: int, keys: int, deadline: float,
                recorder: Optional[Recorder], log: ClientLog) -> None:
    try:
        for sequence, op in enumerate(datagen.served_ops(seed, index, keys)):
            if perf_counter() >= deadline:
                break
            log.attempted += 1
            # In a traced run every other operation is traced, so the two
            # halves see the same server state and differ only by the spans.
            traced = recorder is not None and sequence % 2 == 1
            started = perf_counter()
            try:
                if traced:
                    op_id = (index, sequence)

                    def execute(sql: str, op_id: Tuple[int, int] = op_id) -> Any:
                        with recorder.span("client.execute", op_id):
                            return client.execute(sql)

                    with recorder.span(f"client.op.{op.kind}", op_id):
                        ok = perform(execute, op, log, index, sequence)
                else:
                    ok = perform(client.execute, op, log, index, sequence)
            except ServerError:
                ok = False
                try:  # leave no transaction open for the next operation
                    client.execute("ROLLBACK")
                except ServerError:
                    pass
            log.latencies.append((op.kind, perf_counter() - started, traced))
            log.failed += not ok
    except BaseException as error:  # reported by the caller as a failed run
        log.error = error
    log.finished = perf_counter()


def run(seed: int, seconds: float, sizes: Dict[str, int], recorder: Optional[Recorder],
        scratch: str, out_dir: str) -> Outcome:
    keys = sizes["served_keys"]
    outcome = Outcome()

    def setup(attempt: int) -> Served:
        path = os.path.join(scratch, f"served-{attempt}")
        database = Database.open(path, sync=True)
        try:
            populate(database, seed, keys)
            Connection(database).execute(CREATE_VIEW)
        finally:
            database.close()
        process, port = boot(path)
        served = Served(path, process, [])
        try:
            for index in range(config.CLIENTS):
                client = Client(port=port)
                served.clients.append(client)
                warm = datagen.key(index)
                for sql in (datagen.point_select(warm), datagen.align_select(warm),
                            datagen.view_select(warm), "BEGIN", "ROLLBACK"):
                    client.execute(sql)
        except BaseException:
            teardown(served)
            raise
        return served

    setup_s, served = timed_setups(setup, teardown, sizes["setup_repeats"])
    try:
        _measure(outcome, served, seed, seconds, keys, recorder, out_dir)
    finally:
        teardown(served)
    outcome.end_to_end["setup_s"] = setup_s
    return outcome


def _measure(outcome: Outcome, served: Served, seed: int, seconds: float, keys: int,
             recorder: Optional[Recorder], out_dir: str) -> None:
    control = served.clients[0]
    roundtrips = []
    if recorder is not None:  # on the idle server, before the load starts
        for _ in range(200):
            started = perf_counter()
            control.execute(ONE_ROW)
            roundtrips.append(perf_counter() - started)
    before = control.metrics()

    logs = [ClientLog() for _ in served.clients]
    started = perf_counter()
    deadline = started + seconds
    threads = [
        threading.Thread(target=client_loop,
                         args=(index, client, seed, keys, deadline, recorder, logs[index]))
        for index, client in enumerate(served.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for log in logs:
        if log.error is not None:
            raise log.error
    wall = max(log.finished for log in logs) - started

    counted = functools.partial(metric_delta, control.metrics(), before)
    final_t = Counter(tuple(row) for row in control.execute(ALL_T).rows)
    final_v = Counter(tuple(row) for row in control.execute(ALL_V).rows)
    server_rss = process_peak_rss_mb(served.process.pid)

    outcome.attempted = sum(log.attempted for log in logs)
    outcome.failed = sum(log.failed for log in logs)
    commits = sorted(commit for log in logs for commit in log.commits)
    conflicts = sum(log.conflicts for log in logs)
    latencies = [entry for log in logs for entry in log.latencies]
    reads = [s for kind, s, _ in latencies if kind in READ_KINDS]
    transactions = [s for kind, s, _ in latencies if kind == "txn"]

    twin = _Twin(seed, keys)
    twin.replay(commits)
    outcome.gate("final_state_equals_serial_replay", final_t == twin.rows(ALL_T))
    outcome.gate("view_equals_serial_replay", final_v == twin.rows(ALL_V))
    outcome.gate("server_counted_every_commit",
                 counted("txn.commits") == len(commits))
    outcome.gate("server_counted_every_conflict",
                 counted("txn.conflicts") == conflicts)
    outcome.gate("only_conflict_errors", counted("server.errors")
                 == counted("server.errors", label="conflict"))
    with open(os.path.join(out_dir, "witness-served_mixed.json"), "w", encoding="utf-8") as handle:
        json.dump({"seed": seed, "order": [list(commit[:3]) for commit in commits],
                   "fields": ["commit_epoch", "client", "sequence"]}, handle)

    outcome.end_to_end = {
        "ops_per_s": (outcome.attempted - outcome.failed) / wall,
        "primary_ms": ms(median(reads)),
        "secondary_ms": ms(median(transactions)),
        "peak_rss_mb": peak_rss_mb() + server_rss,
    }
    outcome.samples = {"primary_ms": len(reads), "secondary_ms": len(transactions)}
    outcome.notes["commits"] = len(commits)
    outcome.notes["conflicts"] = conflicts
    outcome.notes["server_peak_rss_mb"] = server_rss
    if recorder is None:
        return

    layers = outcome.layers
    fsyncs = counted("wal.fsync_seconds", "count")
    fsync_seconds = counted("wal.fsync_seconds", "sum")
    hits = counted("relation.derived", label="hit")
    misses = counted("relation.derived", label="miss")
    refreshes = counted("view.refresh")
    layers.update({
        "client.roundtrip_ms": ms(median(roundtrips)),
        "client.op_tail_ms": ms(tail(reads)),
        "e2e.read_p95_ms": ms(percentile(reads, 0.95)),
        "e2e.txn_p95_ms": ms(percentile(transactions, 0.95)),
        "e2e.view_read_p50_ms": ms(median([s for kind, s, _ in latencies if kind == "view"])),
        "e2e.fsyncs_per_commit": fsyncs / max(1, len(commits)),
        "storage.fsync_count": fsyncs,
        "storage.fsync_ms_mean": ms(fsync_seconds / max(1, fsyncs)),
        "storage.fsync_share": fsync_seconds / max(1e-9, sum(transactions)),
        "txn.conflict_retries_per_commit": conflicts / max(1, len(commits)),
        "server.requests": counted("server.requests"),
        "server.errors": counted("server.errors"),
        "relation.derived_hit_share": hits / max(1, hits + misses),
        "views.incremental_share":
            counted("view.refresh", label="incremental") / max(1, refreshes),
    })
    traced_reads = [s for kind, s, traced in latencies if kind in READ_KINDS and traced]
    plain_reads = [s for kind, s, traced in latencies if kind in READ_KINDS and not traced]
    layers["obs.trace_overhead_share"] = (
        (median(traced_reads) - median(plain_reads)) / median(plain_reads)
    )
    twin.layers(layers, [sql for log in logs for sql in log.reads[:READ_REPLAY]])
    # One keyed ALIGN sub-query's kernel call, spread over all read statements.
    align_share = sum(kind == "align" for kind, _, _ in latencies) / max(1, len(reads))
    layers["columnar.kernel_ms"] = ms(twin.kernel_seconds()) * align_share
    layers["columnar.kernel_share"] = layers["columnar.kernel_ms"] / layers["executor.execute_ms"]
    layers["server.wire_ms"] = outcome.end_to_end["primary_ms"] - layers["session.read_ms"]
    outcome.notes["txn_tail_ms"] = ms(tail(transactions))


class _Twin:
    """The in-process, in-memory twin: serial replay and per-layer probes."""

    def __init__(self, seed: int, keys: int):
        self.database = Database()
        populate(self.database, seed, keys)
        self.session = self.database.session()
        started = perf_counter()
        self.session.execute(VIEW_SQL)
        self.recompute = perf_counter() - started
        self.session.execute(CREATE_VIEW)
        self.dml: List[float] = []
        self.commit: List[float] = []

    def _timed(self, sql: str, times: List[float]) -> None:
        started = perf_counter()
        self.session.execute(sql)
        times.append(perf_counter() - started)

    def replay(self, commits: List[Tuple[int, int, int, Tuple[str, ...]]]) -> None:
        ignored: List[float] = []
        for _epoch, _client, _sequence, statements in commits:
            self._timed("BEGIN", ignored)
            for statement in statements:
                self._timed(statement, self.dml)
            self._timed("COMMIT", self.commit)

    def rows(self, sql: str) -> Counter:
        return Counter(self.session.execute(sql).rows)

    def kernel_seconds(self) -> float:
        """The columnar kernel on one key's rows of ``t`` and ``u``."""
        def one_key(name: str) -> Any:
            return self.database.get_relation(name).filter(
                lambda t: t.value("k") == datagen.key(0))

        return kernel_seconds("align", one_key("t"), one_key("u"), ("k",), repeats=20)

    def layers(self, layers: Dict[str, float], reads: List[str]) -> None:
        """Replay the clients' read statements through ``Session.execute`` and,
        decomposed, through each layer's public function."""
        database = self.database
        analyzer = Analyzer(database)
        whole: List[float] = []
        parts: Dict[str, List[float]] = {"parse": [], "analyze": [], "plan": [], "execute": []}
        columnar = row = 0
        for sql in reads:
            started = perf_counter()
            self.session.execute(sql)
            whole.append(perf_counter() - started)
            marks = [perf_counter()]
            statement = parse(sql)
            marks.append(perf_counter())
            logical = analyzer.analyze(statement)
            marks.append(perf_counter())
            physical = database.plan(logical)
            marks.append(perf_counter())
            database.execute(physical, sql=sql)
            marks.append(perf_counter())
            for name, a, b in zip(parts, marks, marks[1:]):
                parts[name].append(b - a)
            labels = strategy_labels(physical)
            columnar += sum(label.startswith("Columnar") for label in labels)
            row += sum(label.startswith("Adjustment") for label in labels)
        derive: List[float] = []
        refresh: List[float] = []
        for index in range(20):
            self.session.execute(
                f"INSERT INTO t (k, v) VALUES ('{datagen.key(0)}', {PROBE_BASE + index}) "
                f"VALID PERIOD [{index}, {index + 1})"
            )
            started = perf_counter()
            database.get_table("t")
            derive.append(perf_counter() - started)
            started = perf_counter()
            self.session.execute("SELECT COUNT(*) FROM v")
            refresh.append(perf_counter() - started)
        total = sum(median(times) for times in parts.values())
        layers.update({
            "session.read_ms": ms(median(whole)),
            "session.dml_ms": ms(median(self.dml)),
            "session.commit_ms": ms(median(self.commit)),
            "sql.parse_ms": ms(median(parts["parse"])),
            "sql.analyze_ms": ms(median(parts["analyze"])),
            "optimizer.plan_ms": ms(median(parts["plan"])),
            "executor.execute_ms": ms(median(parts["execute"])),
            "executor.op_share": median(parts["execute"]) / total if total else 0.0,
            "obs.layer_sum_gap_share": abs(total - median(whole)) / median(whole) if whole else 0.0,
            "optimizer.columnar_adjustments": columnar,
            "optimizer.row_adjustments": row,
            "relation.derive_ms": ms(median(derive)),
            "views.refresh_ms": ms(median(refresh)),
            "views.recompute_ms": ms(self.recompute),
        })
