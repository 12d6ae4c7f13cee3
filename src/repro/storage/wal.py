"""The write-ahead log: framed, checksummed, fsync'd records.

File layout::

    +--------------------------------------------------+
    | header: magic b"RWAL" | u32 format | u64 epoch   |  16 bytes
    +--------------------------------------------------+
    | frame: u32 length | u32 crc32(payload) | payload |  repeated
    +--------------------------------------------------+

Every frame's payload is one pickled record (a plain ``dict``).  The CRC
covers the payload only; the length prefix covers framing.  A reader accepts
the longest prefix of intact frames and ignores everything after the first
short or corrupt frame — exactly the torn-write semantics a crash can
produce — so recovery is always "the last committed prefix", never a guess.

The *epoch* ties a WAL to the snapshot generation it extends.  A checkpoint
writes a snapshot labelled ``epoch + 1`` and then resets the WAL to that new
epoch; if a crash hits between those two steps, recovery sees a WAL whose
epoch is older than the snapshot's and discards it (its effects are already
contained in the snapshot).  Mutation replay is additionally idempotent via
the change-log versions carried in each record, so the epoch check is a
fast path, not the only line of defense.

Pickle is used for payloads because attribute values are arbitrary Python
objects (and expression trees appear in view definitions); the framing and
checksumming above — not the codec — are what recovery correctness rests on.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro import faults
from repro.obs import metrics as obs_metrics

_FSYNC_SECONDS = obs_metrics.histogram("wal.fsync_seconds")

MAGIC = b"RWAL"
FORMAT_VERSION = 1
_HEADER = struct.Struct(">4sIQ")  # magic, format version, epoch
_FRAME = struct.Struct(">II")  # payload length, payload crc32
HEADER_SIZE = _HEADER.size

Record = Dict[str, Any]


class WalCorruptionError(ValueError):
    """A WAL/snapshot file is malformed or of an unknown format version (not
    raised for torn tails)."""


def pack_header(epoch: int, magic: bytes = MAGIC, version: int = FORMAT_VERSION) -> bytes:
    return _HEADER.pack(magic, version, epoch)


def unpack_header(
    blob: bytes, magic: bytes = MAGIC, version: int = FORMAT_VERSION, path: str = ""
) -> Optional[int]:
    """The epoch of a valid header, or ``None`` when it is short/foreign.

    Only a short header or a foreign magic can be a crash artifact (a torn
    creation).  Our magic with another format version is a file this build
    cannot read: :class:`WalCorruptionError` naming both versions, never
    ``None`` — the caller would otherwise recreate the file over it.
    """
    if len(blob) < _HEADER.size:
        return None
    found_magic, found_version, epoch = _HEADER.unpack_from(blob)
    if found_magic != magic:
        return None
    if found_version != version:
        raise WalCorruptionError(
            f"{path or magic.decode()} has format version {found_version}, "
            f"expected {version}; refusing to read or overwrite it"
        )
    return epoch


def pack_frame(record: Record) -> bytes:
    payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def read_frames(blob: bytes, offset: int) -> Tuple[List[Record], int]:
    """Decode intact frames from ``blob[offset:]``.

    Returns ``(records, valid_end)`` where ``valid_end`` is the byte offset
    just past the last intact frame — the position a recovering writer
    truncates to before appending (a torn tail must not be left in the
    middle of the live log).
    """
    records: List[Record] = []
    position = offset
    total = len(blob)
    while True:
        if position + _FRAME.size > total:
            break
        length, checksum = _FRAME.unpack_from(blob, position)
        start = position + _FRAME.size
        end = start + length
        if end > total:
            break  # torn frame: the crash hit mid-write
        payload = blob[start:end]
        if zlib.crc32(payload) != checksum:
            break  # corrupt frame: everything after it is untrusted
        try:
            records.append(pickle.loads(payload))
        # repro: allow(swallowed-error): an unpicklable tail frame IS torn-tail truncation; recovery keeps the valid prefix by contract
        except Exception:
            break
        position = end
    return records, position


def read_wal(path: str) -> Tuple[Optional[int], List[Record], int]:
    """Read a WAL file: ``(epoch, records, valid_length)``.

    ``epoch`` is ``None`` when the file is missing or its header is torn (a
    crash during creation) — the caller then treats the log as empty.  A log
    of another format version raises :class:`WalCorruptionError`.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        return None, [], 0
    epoch = unpack_header(blob, path=path)
    if epoch is None:
        return None, [], 0
    records, valid_end = read_frames(blob, _HEADER.size)
    return epoch, records, valid_end


def _fsync_directory(path: str) -> None:
    """Durably record a directory entry change (rename/create) — POSIX only."""
    try:
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX platforms
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WalWriter:
    """Append-only WAL writer with per-commit ``fsync``.

    ``reset(epoch)`` truncates the log and stamps a fresh header — the
    checkpoint epilogue.  ``truncate_to`` chops a torn tail discovered during
    recovery so new records never follow garbage.
    """

    def __init__(self, path: str, sync: bool = True):
        self.path = path
        self.sync = sync
        self._handle = open(path, "ab")  # noqa: SIM115  (log handle lives as long as the WAL)

    def create(self, epoch: int) -> None:
        """Initialize an empty log (header only) for ``epoch``."""
        if faults.fire("wal.reset_ioerror"):
            raise OSError("injected fault: wal.reset_ioerror")
        self._handle.close()
        self._handle = open(self.path, "wb")  # noqa: SIM115
        self._handle.write(pack_header(epoch))
        self._flush(force=True)
        self._handle.close()
        # The file's *directory entry* must be durable too: without this an
        # OS crash can forget a freshly created wal.log wholesale — and with
        # it every record fsync'd into the file before the first checkpoint.
        _fsync_directory(self.path)
        self._handle = open(self.path, "ab")  # noqa: SIM115

    reset = create  # a checkpoint's WAL rotation is the same operation

    def truncate_to(self, valid_length: int) -> None:
        self._handle.close()
        with open(self.path, "r+b") as handle:
            handle.truncate(valid_length)
            handle.flush()
            os.fsync(handle.fileno())
        self._handle = open(self.path, "ab")  # noqa: SIM115

    def append(self, record: Record) -> int:
        """Append one framed record; returns its size in bytes.

        With ``sync`` enabled the record is ``fsync``'d before returning —
        commit durability, the contract DML relies on.
        """
        frame = pack_frame(record)
        if faults.fire("wal.append_ioerror"):
            raise OSError("injected fault: wal.append_ioerror")
        if faults.fire("wal.torn_tail"):
            # A real torn write: a prefix of the frame reaches the file (and
            # disk) before the failure.  Recovery's read_frames sees a short
            # frame and truncates back to the last intact one.
            self._handle.write(frame[: max(1, len(frame) // 2)])
            self._handle.flush()
            os.fsync(self._handle.fileno())
            raise OSError("injected fault: wal.torn_tail (partial frame on disk)")
        self._handle.write(frame)
        self._flush(force=False)
        return len(frame)

    def _flush(self, force: bool) -> None:
        self._handle.flush()
        if (self.sync or force) and faults.fire("wal.fsync_ioerror"):
            raise OSError("injected fault: wal.fsync_ioerror")
        if self.sync or force:
            started = perf_counter()
            os.fsync(self._handle.fileno())
            _FSYNC_SECONDS.observe(perf_counter() - started)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
