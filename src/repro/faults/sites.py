"""The fault-site catalog: every injection point the stack declares.

A *site* is a named place in the code where :func:`repro.faults.fire` asks
"should this operation fail right now?".  The catalog below is the single
source of truth: arming a spec that names an undeclared site is a
:class:`~repro.faults.plan.FaultSpecError`, firing an undeclared site raises
``KeyError`` at the call site, and the ``fault-site-registered`` invariant
test (docs/static-analysis.md) checks every literal ``faults.fire(...)``
argument in the tree against this dictionary — a typo'd site name is a test
failure, not a fault plan that silently never triggers.

Keep the descriptions honest about *mechanism*: what the injection does, not
just where it sits, because ``tests/faults/test_injection_points.py`` is
phrased against these behaviours (e.g. ``wal.torn_tail`` must leave a
half-written frame for recovery to truncate).
"""

from __future__ import annotations

from typing import Dict

#: site name -> what firing it does (the mechanism, used in docs and errors).
SITES: Dict[str, str] = {
    "wal.append_ioerror": (
        "WalWriter.append raises OSError before the frame reaches the file; "
        "the storage engine poisons itself (memory leads the log)"
    ),
    "wal.torn_tail": (
        "WalWriter.append writes only a prefix of the frame, flushes it, then "
        "raises OSError — a torn write recovery must truncate"
    ),
    "wal.fsync_ioerror": (
        "WalWriter's commit fsync raises OSError after the frame was written"
    ),
    "wal.reset_ioerror": (
        "WalWriter.reset (the checkpoint's WAL rotation) raises OSError; the "
        "engine poisons itself because the snapshot already renamed"
    ),
    "snapshot.rename_ioerror": (
        "write_snapshot raises OSError before the atomic os.replace; the old "
        "snapshot plus the full WAL stay authoritative"
    ),
    "net.drop": (
        "the server closes the connection after reading a request line and "
        "before executing it (the statement never runs; any open transaction "
        "rolls back on disconnect)"
    ),
    "net.stall": (
        "the server sleeps for the armed ms= duration (asyncio.sleep, other "
        "connections keep being served) before executing a request"
    ),
}
