"""Helpers every workload shares: statistics, memory, scratch space, outcome."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (the benchmark may write nowhere else).
WORK = os.path.join(ROOT, ".perf_work")

State = TypeVar("State")


@dataclass
class Outcome:
    """What one run of one workload found."""

    attempted: int = 0
    failed: int = 0
    #: gate name -> passed; a failed gate makes the run incorrect.
    gates: Dict[str, bool] = field(default_factory=dict)
    #: End-to-end metrics (``config.END_TO_END`` names).
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics (``config.PER_LAYER`` names); traced runs only.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Sample count behind each timing, and free-form annotations.
    samples: Dict[str, int] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.gates.values())

    def gate(self, name: str, passed: bool) -> None:
        self.gates[name] = bool(passed)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], share: float) -> float:
    """Linear-interpolated percentile of ``values`` (``share`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def tail(values: Sequence[float]) -> float:
    """The highest percentile that still has ten samples beyond it."""
    if len(values) < 20:
        return max(values, default=0.0)
    return sorted(values)[len(values) - 11]


def ms(seconds: float) -> float:
    return seconds * 1e3


def checksum(rows: Iterable[Tuple]) -> Tuple[int, int]:
    """Row count and an order-independent hash of a result (valid within one
    process: string hashes are salted per interpreter)."""
    count = 0
    total = 0
    for row in rows:
        count += 1
        total += hash(row)
    return count, total & 0xFFFFFFFFFFFFFFFF


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another live process (0 where ``/proc`` is unavailable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def shm_segments() -> Optional[frozenset]:
    try:
        return frozenset(os.listdir("/dev/shm"))
    except OSError:
        return None


def machine_facts() -> Dict[str, Any]:
    from repro.columnar.runtime import numpy_or_none

    numpy = numpy_or_none()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "platform": sys.platform,
    }


def scratch() -> "tempfile.TemporaryDirectory[str]":
    """A private directory under ``.perf_work``, removed when the ``with``
    block ends, gate failure or not."""
    os.makedirs(WORK, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="run-", dir=WORK, ignore_cleanup_errors=True)


def metric_delta(after: Dict[str, Any], before: Dict[str, Any], name: str,
                 part: str = "value", label: Optional[str] = None) -> float:
    """Growth of one instrument between two ``obs`` registry snapshots
    (``REGISTRY.snapshot()`` in process, ``Client.metrics()`` from a server):
    a counter's value or one of its labels, a histogram's ``count`` or ``sum``."""
    def read(snapshot: Dict[str, Any]) -> float:
        entry = snapshot.get(name, {})
        if label is not None:
            return entry.get("labels", {}).get(label, 0)
        return entry.get(part, 0)

    return read(after) - read(before)


def strategy_labels(physical: Any, words: Sequence[str] = ("Adjustment",)) -> List[str]:
    """EXPLAIN labels of the plan nodes that say which adjustment strategy ran
    (``ColumnarAdjustment(...)`` is the kernels, ``Adjustment(...)`` the row
    pipeline)."""
    label = physical.describe()
    own = [label] if any(word in label for word in words) else []
    return own + [l for child in physical.children for l in strategy_labels(child, words)]


def kernel_seconds(kind: str, left: Any, right: Any, attributes: Sequence[str],
                   repeats: int = 3) -> float:
    """Median time of the columnar kernel alone on two relations' encoded
    arrays: ``kernels.align_pieces`` or ``normalize_pieces_from_intervals``."""
    from repro.columnar import kernels
    from repro.columnar.encoding import encode_relation, remap_codes

    a, b = encode_relation(left, attributes), encode_relation(right, attributes)
    codes = remap_codes(a, b)
    kernel = kernels.align_pieces if kind == "align" else kernels.normalize_pieces_from_intervals
    times = []
    for _ in range(repeats):
        started = perf_counter()
        kernel(a.starts, a.ends, codes, b.starts, b.ends, b.codes)
        times.append(perf_counter() - started)
    return median(times)


def timed_setups(
    setup: Callable[[int], State], teardown: Callable[[State], None], repeats: int
) -> Tuple[float, State]:
    """Set up ``repeats`` times, tearing down all but the last; returns the
    median set-up time and the last state, which the run then measures."""
    times: List[float] = []
    state: Optional[State] = None
    for attempt in range(repeats):
        if state is not None:
            teardown(state)
            state = None
            gc.collect()  # every set-up starts from the same heap
        started = perf_counter()
        state = setup(attempt)
        times.append(perf_counter() - started)
    assert state is not None
    return median(times), state
