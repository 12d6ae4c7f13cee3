"""Zero-copy shared-memory transport for columnar adjustment partitions.

The partition-parallel executor of PR 2 ships *pickled row objects* to its
pool workers and pickles the result rows back — a per-row serialisation tax
that made the "parallel" plans slower than serial execution on every
committed benchmark.  This module replaces that transport for columnar
tasks: the parent encodes both inputs once into ``int64`` endpoint/code
arrays (the :mod:`repro.columnar.encoding` representation), partitions them
**by key code** with one vectorized take (no per-row hashing), and publishes
the partition-ordered arrays in named ``multiprocessing.shared_memory``
segments.  A worker receives only a few bytes — segment names plus its
partition's offsets — attaches, runs the columnar kernels over its slices,
and writes the result arrays into a result segment whose name the parent
assigned up front.  Rows are decoded from the result arrays only at the
merge boundary, in the parent.

Layout of a segment (everything ``int64`` little-endian, written via NumPy)::

    u64 magic | u64 array count k | u64 length × k | array payload × k

Lifecycle is owned by a :class:`SegmentRegistry`: every segment name — the
parent-created input blocks *and* the names reserved for worker results —
is recorded **before** any worker runs, and ``cleanup()`` (always executed,
``try/finally``) unlinks every recorded name whether or not the process that
created the segment is still alive.  A worker that dies mid-task therefore
cannot orphan a segment: its result name was handed out by the registry and
is reclaimed by the parent.  Double-creation after an in-process retry of a
half-dead pool is handled by unlinking the stale segment first.

The transport is opt-in down a fallback ladder (see
:func:`shm_available`): NumPy must be importable (the arrays are ndarray
views), the platform must provide POSIX/Windows shared memory, and the
``REPRO_SHM`` environment knob must not be ``0``.  Any miss raises
:class:`ShmUnavailable` before work starts and the caller falls back to the
pickled-row path — the transport may change *where* bytes live, never what
the query returns.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from repro import faults
from repro.columnar import kernels
from repro.columnar.runtime import numpy_or_none
from repro.core.parallel import code_partition_order, parallel_map_with_mode

if TYPE_CHECKING:  # pragma: no cover - the checker always sees the module
    from multiprocessing import shared_memory as _shared_memory
else:
    try:  # pragma: no cover - absent only on exotic platforms
        from multiprocessing import shared_memory as _shared_memory
    except ImportError:  # pragma: no cover
        _shared_memory = None

__all__ = [
    "SegmentBlock",
    "SegmentRegistry",
    "ShmJob",
    "ShmUnavailable",
    "attach_block",
    "read_block",
    "run_shm_job",
    "shm_adjustment",
    "shm_available",
    "write_block",
]

#: First word of every segment; attach rejects anything else.
MAGIC = 0x53484D46524D45  # "SHMFRME"

_WORD = 8  # bytes per int64


class ShmUnavailable(RuntimeError):
    """The shared-memory transport cannot run here; ship pickled rows."""


def shm_available() -> bool:
    """Whether the shared-memory columnar transport can run right now.

    Requires NumPy (``REPRO_NO_NUMPY`` and :func:`~repro.columnar.runtime.
    forced_python` gate it off like every other vectorized path), an
    importable ``multiprocessing.shared_memory``, and ``REPRO_SHM`` unset or
    truthy — ``REPRO_SHM=0`` forces the pickled-row transport, which is how
    tests and operators exercise the fallback without patching anything.
    """
    import os

    if os.environ.get("REPRO_SHM", "1") == "0":
        return False
    return _shared_memory is not None and numpy_or_none() is not None


@dataclass(frozen=True)
class SegmentBlock:
    """Picklable address of one published array block: name + array lengths.

    The lengths travel in the descriptor as well as in the segment header;
    the header makes a segment self-describing (and lets :func:`attach_block`
    validate it), the descriptor lets callers size expectations without
    attaching.
    """

    name: str
    lengths: Tuple[int, ...]


class SegmentRegistry:
    """Tracks every shared-memory segment name a parallel run hands out.

    ``create`` allocates a parent-side segment, ``reserve`` hands out a name
    for a segment a *worker* will create, and ``attach`` opens an existing
    segment parent-side.  ``cleanup()`` — run unconditionally, also via the
    context-manager protocol — closes every parent-side handle and unlinks
    every handed-out name, tolerating names whose segment was never created
    (worker died before creating it) or already vanished.  ``handed_out``
    stays populated after cleanup so tests can assert that none of the names
    still resolves to a live segment.
    """

    def __init__(self, prefix: str = "repro"):
        # Short prefix: POSIX shm names have tight length limits (31 chars
        # portable); uuid keeps concurrent runs from colliding.
        self._base = f"{prefix}{uuid.uuid4().hex[:10]}"
        self._counter = 0
        self.handed_out: List[str] = []
        self._open: List[_shared_memory.SharedMemory] = []

    def _next_name(self) -> str:
        self._counter += 1
        name = f"{self._base}n{self._counter}"
        self.handed_out.append(name)
        return name

    def reserve(self) -> str:
        """A fresh name for a segment some other process will create."""
        return self._next_name()

    def create(self, nbytes: int) -> _shared_memory.SharedMemory:
        segment = _create_segment(self._next_name(), nbytes)
        self._open.append(segment)
        return segment

    def attach(self, name: str) -> _shared_memory.SharedMemory:
        if faults.fire("shm.attach_fail"):
            # Parent-side attach at the merge boundary: the caller's cleanup
            # unlinks every handed-out name before the pickled-row fallback.
            raise ShmUnavailable("injected fault: shm.attach_fail")
        segment = _shared_memory.SharedMemory(name=name)
        self._open.append(segment)
        return segment

    def cleanup(self) -> None:
        """Close all parent-side handles, then unlink every handed-out name."""
        for segment in self._open:
            try:
                segment.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        self._open.clear()
        for name in self.handed_out:
            try:
                segment = _shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue  # never created, or already unlinked
            segment.close()
            segment.unlink()

    def __enter__(self) -> SegmentRegistry:
        return self

    def __exit__(self, *_exc: object) -> None:
        self.cleanup()


def _create_segment(name: str, nbytes: int) -> _shared_memory.SharedMemory:
    """Create a named segment, replacing a stale leftover of the same name.

    The stale case is real: when a pool worker dies *after* creating its
    result segment, :func:`~repro.core.parallel.parallel_map_with_mode`
    retries the whole map in-process — and the retry must not trip over the
    dead worker's segment.
    """
    if faults.fire("shm.create_fail"):
        raise ShmUnavailable("injected fault: shm.create_fail")
    size = max(1, nbytes)
    try:
        # repro: allow(shm-lifecycle): _create_segment is the registry's own factory; every name it binds was issued by SegmentRegistry.reserve
        return _shared_memory.SharedMemory(name=name, create=True, size=size)
    except FileExistsError:
        # repro: allow(shm-lifecycle): attaching to a stale leftover of a registry-issued name in order to unlink it
        stale = _shared_memory.SharedMemory(name=name)
        stale.close()
        stale.unlink()
        # repro: allow(shm-lifecycle): recreate under the registry-issued name after clearing the dead worker's leftover
        return _shared_memory.SharedMemory(name=name, create=True, size=size)


def write_block(segment: Any, arrays: Sequence[Any]) -> SegmentBlock:
    """Serialise ``int64`` arrays into an (already sized) segment."""
    np = numpy_or_none()
    lengths = tuple(int(len(array)) for array in arrays)
    header = np.asarray([MAGIC, len(arrays), *lengths], dtype=np.int64)
    view = np.ndarray(
        (header.size + sum(lengths),), dtype=np.int64, buffer=segment.buf
    )
    view[: header.size] = header
    position = header.size
    for array, length in zip(arrays, lengths):
        view[position : position + length] = np.asarray(array, dtype=np.int64)
        position += length
    return SegmentBlock(name=segment.name, lengths=lengths)


def block_nbytes(arrays: Sequence[Any]) -> int:
    """Bytes a :func:`write_block` of these arrays needs."""
    return _WORD * (2 + len(arrays) + sum(len(array) for array in arrays))


def read_block(segment: Any, lengths: Sequence[int]) -> List[Any]:
    """The arrays of a block as zero-copy ndarray views into ``segment``.

    The views borrow the segment's buffer: consume (or copy) them before
    closing the segment.  The header is validated against ``lengths`` so a
    torn or foreign segment fails loudly instead of yielding garbage rows.
    """
    np = numpy_or_none()
    count = len(lengths)
    header = np.ndarray((2 + count,), dtype=np.int64, buffer=segment.buf)
    if header[0] != MAGIC or header[1] != count or list(header[2:]) != list(lengths):
        raise ShmUnavailable(f"segment {segment.name!r} does not hold the expected block")
    arrays = []
    position = 2 + count
    for length in lengths:
        arrays.append(
            np.ndarray((length,), dtype=np.int64, buffer=segment.buf, offset=position * _WORD)
        )
        position += length
    return arrays


def attach_block(block: SegmentBlock) -> Tuple[Any, List[Any]]:
    """Attach to a published block; returns ``(segment, arrays)``.

    The caller owns the segment handle (close it once the arrays are
    consumed); unlinking stays with the registry that handed out the name.
    """
    # repro: allow(shm-lifecycle): consumer-side attach to a published block; the name came from the registry and unlinking stays with it
    segment = _shared_memory.SharedMemory(name=block.name)
    return segment, read_block(segment, block.lengths)


# -- the partition map -----------------------------------------------------------------


@dataclass(frozen=True)
class ShmJob:
    """One partition's worth of work, shippable in a few dozen bytes.

    ``left``/``right`` address the shared input blocks (one per side for the
    *whole* exchange — workers see slices, not copies); the offsets select
    this partition's rows.  ``result_name`` is the registry-reserved name
    under which the worker publishes its output block.
    """

    isalign: bool
    left: SegmentBlock
    right: SegmentBlock
    left_offset: int
    left_count: int
    right_offset: int
    right_count: int
    result_name: str


def run_shm_job(job: ShmJob) -> Optional[Tuple[str, Tuple[int, ...]]]:
    """Pool worker: run the columnar kernel over one partition's slices.

    Attaches to the two input blocks, views this partition's slices (zero
    copy), runs :func:`~repro.columnar.kernels.align_pieces` or
    :func:`~repro.columnar.kernels.normalize_pieces`, and publishes the
    three result arrays — local row index, piece start, piece end — under
    ``job.result_name``.  Returns the result block address, or ``None`` when
    the partition produced nothing (no segment is created then).
    """
    np = numpy_or_none()
    left_segment, (l_starts, l_ends, l_codes) = attach_block(job.left)
    right_segment, right_arrays = attach_block(job.right)
    try:
        lo, ln = job.left_offset, job.left_count
        ro, rn = job.right_offset, job.right_count
        if job.isalign:
            r_starts, r_ends, r_codes = right_arrays
            rows, starts, ends = kernels.align_pieces(
                l_starts[lo : lo + ln],
                l_ends[lo : lo + ln],
                l_codes[lo : lo + ln],
                r_starts[ro : ro + rn],
                r_ends[ro : ro + rn],
                r_codes[ro : ro + rn],
                include_empty=True,
            )
        else:
            points, point_codes = right_arrays
            rows, starts, ends = kernels.normalize_pieces(
                l_starts[lo : lo + ln],
                l_ends[lo : lo + ln],
                l_codes[lo : lo + ln],
                points[ro : ro + rn],
                point_codes[ro : ro + rn],
            )
    finally:
        left_segment.close()
        right_segment.close()
    if not rows:
        return None
    arrays = [
        np.asarray(rows, dtype=np.int64),
        np.asarray(starts, dtype=np.int64),
        np.asarray(ends, dtype=np.int64),
    ]
    segment = _create_segment(job.result_name, block_nbytes(arrays))
    try:
        block = write_block(segment, arrays)
    finally:
        segment.close()
    return block.name, block.lengths


def shm_adjustment(
    task: Any,
    left_rows: Sequence[Tuple[Any, ...]],
    right_rows: Sequence[Tuple[Any, ...]],
    workers: int,
    partitions: int,
    min_items: Optional[int] = None,
    registry: Optional[SegmentRegistry] = None,
) -> Tuple[List[Tuple[Any, ...]], str, SegmentRegistry]:
    """Run one adjustment task partition-parallel over shared-memory frames.

    The shared-memory twin of pickled-row
    :func:`~repro.engine.executor.partition.run_adjustment_task` fan-out:

    1. sort/dedupe the argument rows and encode both sides into ``int64``
       endpoint + key-code arrays (:func:`repro.columnar.rows.arrays_from_rows`,
       the drained-row source of the single-process path, so the output
       contract is identical);
    2. partition **by key code** with one vectorized take — the codes are
       already dense integers, so ``code % partitions`` is an exact
       equality-preserving split and no row is ever hashed;
    3. publish one input block per side and map :class:`ShmJob` descriptors
       over the pool (placement policy — pool vs in-process, fallback
       warnings — stays with :func:`~repro.core.parallel.parallel_map_with_mode`);
    4. decode worker result arrays back into engine rows, partition by
       partition, only here at the merge boundary.

    Returns ``(rows, mode, registry)``; ``mode`` is the placement report of
    the underlying map.  Raises
    :class:`~repro.columnar.rows.ColumnarUnsupported` for rows the encoding
    cannot batch and :class:`ShmUnavailable` when the transport cannot run —
    both *before* any segment exists, so the caller can fall back to pickled
    rows with nothing to clean up.
    """
    from repro.columnar.rows import arrays_from_rows

    if not shm_available():
        raise ShmUnavailable("shared-memory transport disabled or unavailable")
    np = numpy_or_none()
    partitions = max(1, partitions)

    arrays = arrays_from_rows(task, left_rows, right_rows)
    unique = arrays.rows
    l_starts, l_ends, l_codes = arrays.l_starts, arrays.l_ends, arrays.l_codes
    if arrays.r_ends is not None:
        right_columns = [arrays.r_starts, arrays.r_ends, arrays.r_codes]
    else:  # normalization: the split-point column
        right_columns = [arrays.r_starts, arrays.r_codes]

    left_order, left_offsets, left_counts = code_partition_order(l_codes, partitions)
    right_order, right_offsets, right_counts = code_partition_order(
        right_columns[-1], partitions
    )

    owns_registry = registry is None
    if registry is None:
        registry = SegmentRegistry()
    try:
        left_arrays = [
            np.asarray(column, dtype=np.int64)[left_order]
            for column in (l_starts, l_ends, l_codes)
        ]
        right_arrays = [
            np.asarray(column, dtype=np.int64)[right_order] for column in right_columns
        ]
        left_block = write_block(registry.create(block_nbytes(left_arrays)), left_arrays)
        right_block = write_block(
            registry.create(block_nbytes(right_arrays)), right_arrays
        )

        jobs = [
            ShmJob(
                isalign=task.isalign,
                left=left_block,
                right=right_block,
                left_offset=int(left_offsets[p]),
                left_count=int(left_counts[p]),
                right_offset=int(right_offsets[p]),
                right_count=int(right_counts[p]),
                result_name=registry.reserve(),
            )
            for p in range(partitions)
            # Reference-only partitions cannot produce output: the group
            # construction is a left join, argument rows drive everything.
            if left_counts[p]
        ]
        results, mode = parallel_map_with_mode(
            run_shm_job,
            jobs,
            workers=workers,
            total_items=len(unique) + len(arrays.r_codes),
            min_items=min_items,
        )

        ts_index, te_index = task.ts_index, task.te_index
        output: List[Tuple[Any, ...]] = []
        for job, result in zip(jobs, results):
            if result is None:
                continue
            name, lengths = result
            segment = registry.attach(name)
            local_rows, starts, ends = read_block(segment, lengths)
            # Local slice position → position in the engine-sorted unique
            # argument rows: the partition take left rows stably ordered.
            positions = left_order[job.left_offset + local_rows]
            for position, start, end in zip(
                positions.tolist(), starts.tolist(), ends.tolist()
            ):
                values = list(unique[position])
                values[ts_index] = start
                values[te_index] = end
                output.append(tuple(values))
        return output, mode, registry
    finally:
        if owns_registry:
            registry.cleanup()
