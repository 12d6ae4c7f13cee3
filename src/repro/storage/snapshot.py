"""Snapshots: one atomic, checksummed serialization of the full database.

A snapshot captures, for every registered relation, the tuples *with their
rowids* plus the change-log counters (version, trim horizon), and for every
materialized view its definition and maintained state.  An incremental
view's state is its change-log cursors, statistics and per-rowid fragment
endpoints — nothing else: ALIGN and NORMALIZE only split intervals, so each
fragment is its base tuple over a persisted interval, and the lineage is
rebuilt from the restored base relation.  Rowids and cursors are the whole
point: restoring them is what lets recovered views keep addressing the right
base tuples and fold only the WAL suffix — incremental maintenance survives
the restart.

Layout: the WAL header/frame format of :mod:`repro.storage.wal` with magic
``b"RSNP"``, its own format number :data:`SNAPSHOT_FORMAT`, and a single
frame holding the pickled state.  A snapshot of another format version is
refused with :class:`~repro.storage.wal.WalCorruptionError`, never read as
something it is not.  The file is written to a temporary sibling, fsync'd,
then renamed over the previous snapshot — a crash mid-checkpoint leaves the
old snapshot intact.

Views whose definition cannot be serialized (an opaque θ callable, a plan
embedding a Python predicate) are skipped with a :class:`UserWarning`; they
exist only for the lifetime of the process that created them.
"""

from __future__ import annotations

import os
import pickle
import warnings
from typing import Any, Dict, List, Optional, Tuple

from repro import faults
from repro.relation.relation import TemporalRelation
from repro.relation.schema import Schema
from repro.temporal.interval import Interval

from repro.storage.wal import (
    HEADER_SIZE,
    WalCorruptionError,
    _fsync_directory,
    pack_frame,
    pack_header,
    read_frames,
    unpack_header,
)

SNAPSHOT_MAGIC = b"RSNP"
#: Version 2: views persist fragment endpoints instead of fragment and
#: lineage tuples.  The WAL keeps its own number (``wal.FORMAT_VERSION``).
SNAPSHOT_FORMAT = 2

State = Dict[str, Any]


def encode_relation(relation: TemporalRelation) -> Dict[str, Any]:
    """The persisted form of one relation (schema, rows+rowids, log counters)."""
    return {
        "attributes": list(relation.schema.attribute_names),
        "timestamp": relation.schema.timestamp,
        "enforce": relation.enforce_duplicate_free,
        "rows": [
            (rowid, t.values, t.start, t.end) for rowid, t in relation.rows_with_ids()
        ],
        "next_rowid": relation.next_rowid,
        "version": relation.version,
        "trimmed_below": relation.changelog_trimmed_below,
    }


def decode_relation(record: Dict[str, Any]) -> TemporalRelation:
    schema = Schema(record["attributes"], timestamp=record["timestamp"])
    return TemporalRelation.restore(
        schema,
        [
            (rowid, (values, Interval(start, end)))
            for rowid, values, start, end in record["rows"]
        ],
        next_rowid=record["next_rowid"],
        changelog_version=record["version"],
        trimmed_below=record["trimmed_below"],
        enforce_duplicate_free=record["enforce"],
    )


def serializable_definition(view) -> Optional[Dict[str, Any]]:
    """The view's definition record iff it can be persisted, else ``None``
    (with a :class:`UserWarning` naming the reason)."""
    definition = getattr(view, "definition", None)
    if definition is None:
        warnings.warn(
            f"materialized view {view.name!r} has an opaque definition "
            "(raw θ callable) and will not survive a restart",
            UserWarning,
            stacklevel=2,
        )
        return None
    try:
        pickle.dumps(definition, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as error:
        warnings.warn(
            f"materialized view {view.name!r} cannot be serialized "
            f"({type(error).__name__}: {error}) and will not survive a restart",
            UserWarning,
            stacklevel=2,
        )
        return None
    return definition


def encode_view(view) -> Optional[Dict[str, Any]]:
    """One view's snapshot entry, or ``None`` when it cannot be persisted."""
    definition = serializable_definition(view)
    if definition is None:
        return None
    return {"definition": definition, "state": view.export_state()}


def encode_database(database) -> State:
    """The full persisted state of a database (relations in registration
    order, views in creation order)."""
    relations: List[Tuple[str, Dict[str, Any]]] = [
        (name, encode_relation(relation))
        for name, relation in database.relations.items()
    ]
    views = [
        entry
        for entry in (encode_view(v) for v in database.views.in_creation_order())
        if entry is not None
    ]
    return {"relations": relations, "views": views}


def restore_database(database, state: State) -> None:
    """Install a snapshot into a *fresh* database (no logging side effects:
    the caller suppresses its WAL hooks while this runs).

    Relations are restored first, then views — a view's lineage and
    reference-side support structure are rebuilt from the relation state its
    cursors refer to, which is exactly the snapshot state (checkpoints
    refresh every view before serializing, so cursors and relation versions
    agree; a view whose cursors disagree raises
    :class:`~repro.storage.wal.WalCorruptionError`).
    """
    for name, record in state["relations"]:
        database.register_relation(name, decode_relation(record))
    for entry in state["views"]:
        view = database.views.create_from_definition(entry["definition"], build=False)
        view.restore_state(entry["state"])


def write_snapshot(path: str, epoch: int, state: State) -> int:
    """Atomically replace the snapshot at ``path``; returns bytes written."""
    blob = pack_header(epoch, magic=SNAPSHOT_MAGIC, version=SNAPSHOT_FORMAT) + pack_frame(state)
    temporary = path + ".tmp"
    with open(temporary, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    if faults.fire("snapshot.rename_ioerror"):
        # Before the atomic replace: the previous snapshot plus the full WAL
        # remain the authoritative history (the .tmp sibling is inert).
        raise OSError("injected fault: snapshot.rename_ioerror")
    os.replace(temporary, path)
    _fsync_directory(path)
    return len(blob)


def read_snapshot(path: str) -> Optional[Tuple[int, State]]:
    """Load ``(epoch, state)``, or ``None`` when no snapshot exists.

    A malformed snapshot, or one of another format version, raises
    :class:`WalCorruptionError`: snapshots are written atomically, so unlike
    a torn WAL tail this is never an expected crash artifact.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        return None
    epoch = unpack_header(blob, magic=SNAPSHOT_MAGIC, version=SNAPSHOT_FORMAT, path=path)
    if epoch is None:
        raise WalCorruptionError(f"snapshot {path!r} has a malformed header")
    records, _valid_end = read_frames(blob, HEADER_SIZE)
    if len(records) != 1:
        raise WalCorruptionError(f"snapshot {path!r} does not contain exactly one frame")
    return epoch, records[0]
