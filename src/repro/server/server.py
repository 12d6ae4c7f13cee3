"""The asyncio network front end: N clients, one durable database.

Each accepted connection gets its own :class:`~repro.engine.session.Session`
— its own transaction state — and statements from all connections execute in
the single event-loop thread.  The engine is not thread-safe and does not
need to be here: a statement runs to completion without ever awaiting, so
statement execution is *structurally* serialized — a reader can never
observe a torn write, and snapshot isolation (not the event loop) is what
provides atomicity across the multiple statements of a transaction.

Disconnects and shutdown are where transactional serving earns its keep:

* a client vanishing mid-transaction rolls its transaction back (deferred
  workspaces make this free — nothing was applied);
* :meth:`DatabaseServer.stop` closes every session, aborts every open
  transaction, and (when the server owns the database) closes it, which
  checkpoints and releases the flock'd ``LOCK`` deterministically — the
  engine is left clean, not poisoned, even when killed mid-transaction.

Hardening (admission control and liveness):

* ``max_connections`` caps concurrent sessions; a connection over the cap
  receives one typed ``overloaded`` response (``id: null`` — it precedes any
  request) and is closed, so clients back off instead of queueing silently;
* ``idle_timeout`` starts a reaper that cancels connections with no request
  activity for that many seconds, rolling their transactions back — an
  abandoned client cannot pin a session (or its transaction) forever;
* the ``net.drop``/``net.stall`` fault sites (:mod:`repro.faults`) inject
  connection loss and slow reads *between* requests, which is what
  ``tests/server/test_served_rounds.py`` uses to prove client retry logic
  converges.

:func:`serve_in_thread` runs a server in a daemon thread with its own event
loop — the harness the tests use to drive real socket clients against an
in-process database.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, Optional

from repro import faults
from repro.engine.database import Database
from repro.obs import metrics as obs_metrics
from repro.server import protocol

_REQUEST_COUNTER = obs_metrics.counter("server.requests")
_ERROR_COUNTER = obs_metrics.counter("server.errors", label_name="kind")
_CONNECTIONS_GAUGE = obs_metrics.gauge("server.connections")

#: Longest accepted request line (64 MiB) — a runaway client must not make
#: the server buffer unbounded input.
MAX_LINE = 64 * 1024 * 1024


class DatabaseServer:
    """Serve one database over the line protocol (see the module docstring)."""

    def __init__(self, database: Database, host: str = "127.0.0.1", port: int = 7654,
                 owns_database: bool = False, max_connections: Optional[int] = None,
                 idle_timeout: Optional[float] = None):
        self.database = database
        self.host = host
        self.port = port
        #: Close the database on :meth:`stop` (the CLI sets this; embedded
        #: users usually keep ownership).
        self.owns_database = owns_database
        #: Admission control: refuse connections beyond this many concurrent
        #: sessions with a typed ``overloaded`` response.  ``None`` = no cap.
        self.max_connections = max_connections
        #: Cancel connections idle (no completed request) longer than this
        #: many seconds, rolling open transactions back.  ``None`` = never.
        self.idle_timeout = idle_timeout
        self._server: Optional[asyncio.AbstractServer] = None
        self._connection_tasks: set = set()
        self._sessions: Dict[int, object] = {}
        #: Liveness bookkeeping for the idle reaper: connection id →
        #: ``loop.time()`` of the last completed request (or accept).
        self._last_active: Dict[int, float] = {}
        self._tasks_by_id: Dict[int, "asyncio.Task"] = {}
        self._reaper_task: Optional["asyncio.Task"] = None
        self._next_connection_id = 1
        self.stats: Dict[str, int] = {
            "connections": 0,
            "requests": 0,
            "errors": 0,
            "aborted_on_disconnect": 0,
            "rejected_overloaded": 0,
            "reaped_idle": 0,
            "dropped_connections": 0,
        }

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE
        )
        # Port 0 means "pick one": publish the port actually bound.
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        if self.idle_timeout is not None and self.idle_timeout > 0:
            self._reaper_task = asyncio.get_running_loop().create_task(
                self._reap_idle_connections()
            )

    async def stop(self) -> None:
        """Stop accepting, close every session (open transactions roll back),
        release the database when owned.  Idempotent."""
        server, self._server = self._server, None
        reaper, self._reaper_task = self._reaper_task, None
        if reaper is not None:
            reaper.cancel()
            await asyncio.gather(reaper, return_exceptions=True)
        if server is not None:
            server.close()
            await server.wait_closed()
        # Cancel handlers stuck waiting for the next request line; their
        # finally blocks run (rolling open transactions back) before we sweep
        # whatever sessions remain.
        tasks = [task for task in self._connection_tasks if not task.done()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for session in list(self._sessions.values()):
            if getattr(session, "in_transaction", False):
                self.stats["aborted_on_disconnect"] += 1
            session.close()
        self._sessions.clear()
        if self.owns_database:
            self.database.close()

    async def serve_until(self, stop_event: asyncio.Event) -> None:
        """Run until ``stop_event`` is set, then shut down cleanly."""
        await self.start()
        try:
            await stop_event.wait()
        finally:
            await self.stop()

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if (
            self.max_connections is not None
            and len(self._sessions) >= self.max_connections
        ):
            # Admission control: refuse *before* creating a session, with a
            # typed response the client can distinguish from a crash.
            self.stats["rejected_overloaded"] += 1
            _ERROR_COUNTER.inc(label=protocol.OVERLOADED_KIND)
            writer.write(
                protocol.encode_line(protocol.overloaded_response(self.max_connections))
            )
            try:
                await writer.drain()
            except ConnectionError:
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - platform noise
                pass
            return
        connection_id = self._next_connection_id
        self._next_connection_id += 1
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
            self._tasks_by_id[connection_id] = task
        session = self.database.session()
        self._sessions[connection_id] = session
        self._last_active[connection_id] = asyncio.get_running_loop().time()
        _CONNECTIONS_GAUGE.set(len(self._sessions))
        self.stats["connections"] += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break  # EOF: client disconnected
                if not line.strip():
                    continue
                if faults.fire("net.stall"):
                    await asyncio.sleep(faults.stall_ms("net.stall") / 1000.0)
                if faults.fire("net.drop"):
                    # Injected connection loss, *before* executing: the
                    # dropped request never ran, so a reconnecting client can
                    # retry it without double-apply ambiguity.
                    self.stats["dropped_connections"] += 1
                    break
                response = self._serve_request(session, line)
                self._last_active[connection_id] = asyncio.get_running_loop().time()
                writer.write(protocol.encode_line(response))
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        except asyncio.CancelledError:
            pass  # server shutdown / idle reap: fall through to the teardown
        finally:
            if task is not None:
                self._connection_tasks.discard(task)
            self._tasks_by_id.pop(connection_id, None)
            self._last_active.pop(connection_id, None)
            self._sessions.pop(connection_id, None)
            _CONNECTIONS_GAUGE.set(len(self._sessions))
            if session.in_transaction:
                # Session teardown on disconnect: the open transaction is
                # rolled back — an interrupted client never half-commits.
                self.stats["aborted_on_disconnect"] += 1
            session.close()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - platform noise
                pass

    async def _reap_idle_connections(self) -> None:
        """Cancel connections with no completed request for ``idle_timeout``
        seconds; their handler's teardown rolls open transactions back."""
        assert self.idle_timeout is not None
        interval = max(0.05, self.idle_timeout / 4.0)
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(interval)
            cutoff = loop.time() - self.idle_timeout
            for connection_id, last in list(self._last_active.items()):
                if last >= cutoff:
                    continue
                idle_task = self._tasks_by_id.get(connection_id)
                if idle_task is not None and not idle_task.done():
                    self.stats["reaped_idle"] += 1
                    idle_task.cancel()

    def _serve_request(self, session, line: bytes) -> dict:
        """Execute one request line; never raises (errors become responses)."""
        self.stats["requests"] += 1
        _REQUEST_COUNTER.inc()
        request_id = None
        try:
            request = protocol.decode_line(line)
            request_id = request.get("id")
            if request.get("cmd") == "metrics":
                # Telemetry request: the registry snapshot, no SQL involved.
                return {
                    "id": request_id,
                    "ok": True,
                    "metrics": obs_metrics.REGISTRY.snapshot(),
                }
            sql = request.get("sql")
            if not isinstance(sql, str):
                raise ValueError('requests need a "sql" string field')
            # Synchronous on purpose: no await between here and the result,
            # so the statement is atomic with respect to every other client.
            table = session.execute(sql)
            return protocol.result_response(request_id, table.columns, table.rows)
        except Exception as error:  # noqa: BLE001 - the wire carries the error
            self.stats["errors"] += 1
            _ERROR_COUNTER.inc(
                label=protocol.error_kind(error)
            )
            return protocol.error_response(request_id, error)


class ServerThread:
    """A server running in a daemon thread with its own event loop."""

    def __init__(self, server: DatabaseServer, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop, stop_event: asyncio.Event):
        self.server = server
        self._thread = thread
        self._loop = loop
        self._stop_event = stop_event

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def stop(self, timeout: float = 10.0) -> None:
        """Signal shutdown and join the thread.  Idempotent.

        Raises:
            RuntimeError: when the server thread is still alive after
                ``timeout`` seconds — a hung shutdown (stuck handler, wedged
                event loop) must be loud, not a silently leaked daemon
                thread that keeps the database's ``LOCK`` held.
        """
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError(
                f"server thread {self._thread.name!r} still alive "
                f"{timeout:g}s after shutdown was signalled; the event loop "
                "is wedged and the database lock is still held"
            )

    def __enter__(self) -> ServerThread:
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


def serve_in_thread(
    database: Database, host: str = "127.0.0.1", port: int = 0,
    owns_database: bool = False, max_connections: Optional[int] = None,
    idle_timeout: Optional[float] = None,
) -> ServerThread:
    """Start a :class:`DatabaseServer` in a background thread and wait until
    it accepts connections.  ``port=0`` binds an ephemeral port (read it off
    the returned handle)."""
    server = DatabaseServer(
        database, host, port, owns_database=owns_database,
        max_connections=max_connections, idle_timeout=idle_timeout,
    )
    started = threading.Event()
    holder: dict = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        stop_event = asyncio.Event()
        holder["loop"] = loop
        holder["stop_event"] = stop_event

        async def main() -> None:
            await server.start()
            started.set()
            try:
                await stop_event.wait()
            finally:
                await server.stop()

        try:
            loop.run_until_complete(main())
        finally:
            started.set()  # unblock the caller even if startup failed
            loop.close()

    thread = threading.Thread(target=run, name="repro-server", daemon=True)
    thread.start()
    started.wait(10.0)
    if "loop" not in holder:
        raise RuntimeError("server thread failed to start its event loop")
    return ServerThread(server, thread, holder["loop"], holder["stop_event"])
