"""Durable storage: write-ahead log, snapshots, crash recovery.

The paper's experiments run against PostgreSQL, where durability comes for
free; this reproduction's engine was purely in-memory until now.  This
package adds the missing persistence layer with the classic architecture:

* every committed mutation (and every DDL event) is appended to a
  :mod:`write-ahead log <repro.storage.wal>` as a framed, checksummed record
  and ``fsync``'d before the statement returns;
* a :mod:`snapshot <repro.storage.snapshot>` periodically serializes the full
  database state — relations with rowids and change-log counters, and every
  materialized view's cursors and per-rowid fragment endpoints;
* recovery (:mod:`repro.storage.engine`) loads the latest snapshot and
  replays the WAL suffix, after which maintained views resume *incremental*
  maintenance — their cursors say exactly which change-log suffix is still
  unapplied, so a restart never silently degrades into full recomputes.

Entry point: :meth:`repro.engine.database.Database.open`.
"""

from repro.storage.engine import StorageEngine, StorageError
from repro.storage.wal import WalWriter, read_wal

__all__ = ["StorageEngine", "StorageError", "WalWriter", "read_wal"]
