"""Cooperative per-statement execution deadlines.

:meth:`Database.execute` opens a :func:`deadline_scope` around plan
execution when ``Settings.statement_timeout_ms`` is positive; every
physical operator's iterator (``PhysicalNode.__iter__``) then wraps itself
in :func:`checked`, which compares ``perf_counter()`` against the deadline
every :data:`CHECK_EVERY` produced rows and raises
:class:`~repro.relation.errors.StatementTimeoutError` on overrun; a batch
handed between operators (``PhysicalNode.batch``) is checked before and
after it is built.

Cooperative means exactly that: the check costs one thread-local read per
iterator construction when no deadline is active (mirroring the tracing
hook's discipline — the obs_overhead bench gates the executor's always-on
overhead), and a statement blocked inside a single kernel call or a
blocking syscall is not preempted.  Scopes nest by keeping the *earliest*
deadline, so an outer caller's budget can only shrink, never grow, inside
nested executions (view refresh during a query, for example).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Optional

from repro.relation.errors import StatementTimeoutError

#: Rows produced between deadline checks — frequent enough that a pure-Python
#: pipeline overruns by microseconds, rare enough to stay off profiles.
CHECK_EVERY = 256


class _DeadlineState(threading.local):
    deadline: Optional[float] = None
    timeout_ms: float = 0.0


_state = _DeadlineState()


def active_deadline() -> Optional[float]:
    """The current thread's deadline (``perf_counter`` instant) or ``None``."""
    return _state.deadline


@contextmanager
def deadline_scope(timeout_ms: Optional[float]) -> Iterator[None]:
    """Activate a deadline ``timeout_ms`` from now; no-op when unset/zero."""
    if not timeout_ms or timeout_ms <= 0:
        yield
        return
    previous, previous_ms = _state.deadline, _state.timeout_ms
    candidate = perf_counter() + timeout_ms / 1000.0
    if previous is None or candidate < previous:
        _state.deadline, _state.timeout_ms = candidate, timeout_ms
    try:
        yield
    finally:
        _state.deadline, _state.timeout_ms = previous, previous_ms


def _overrun() -> StatementTimeoutError:
    return StatementTimeoutError(
        f"statement exceeded statement_timeout_ms={_state.timeout_ms:g}; "
        "the transaction (if any) has been rolled back"
    )


def check(deadline: float) -> None:
    """Raise the typed timeout error if ``deadline`` has passed."""
    if perf_counter() > deadline:
        raise _overrun()


def checked(iterator: Iterator, deadline: float) -> Iterator:
    """Yield from ``iterator``, enforcing ``deadline`` every few rows."""
    check(deadline)
    count = 0
    for row in iterator:
        count += 1
        if not count % CHECK_EVERY and perf_counter() > deadline:
            raise _overrun()
        yield row
