"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

Instruments are registered *by name* at first use — ``counter("txn.commits")``
returns the same :class:`Counter` from every call site and every thread.  A
counter may carry one optional label dimension (``server.errors{kind}``):
``inc(label="conflict")`` partitions the total without changing the
unlabeled fast path.  Histograms use fixed bucket boundaries chosen for
latencies in seconds; there is no dependency beyond the stdlib.

Three consumers read the registry:

* ``SHOW METRICS`` / ``{cmd: "metrics"}`` render :meth:`MetricsRegistry.snapshot`,
  a plain JSON-able dict;
* ``python -m repro.serve --metrics-port`` serves
  :meth:`MetricsRegistry.render_prometheus` (text exposition format 0.0.4);
* ``perf/`` diffs snapshots around a measured run into its per-layer
  counts (``REGISTRY.snapshot()`` in process, ``Client.metrics()`` from a
  served subprocess).

Tests call :func:`reset` to zero values while keeping registrations — the
registry is process-global state, so assertions about deltas should either
reset first or capture a before-snapshot.
"""

from __future__ import annotations

import re
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

#: Default bucket upper bounds (seconds) — spans sub-millisecond fsyncs up to
#: multi-second checkpoints.  Cumulative counts are derived at render time.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

Number = Union[int, float]


class Counter:
    """A monotonically increasing count, optionally split by one label."""

    __slots__ = ("name", "label_name", "_lock", "_total", "_labels")

    def __init__(self, name: str, label_name: str = "label"):
        self.name = name
        self.label_name = label_name
        self._lock = threading.Lock()
        self._total: Number = 0
        self._labels: Dict[str, Number] = {}

    def inc(self, amount: Number = 1, label: Optional[str] = None) -> None:
        with self._lock:
            self._total += amount
            if label is not None:
                self._labels[label] = self._labels.get(label, 0) + amount

    @property
    def total(self) -> Number:
        with self._lock:
            return self._total

    def value(self, label: Optional[str] = None) -> Number:
        with self._lock:
            if label is None:
                return self._total
            return self._labels.get(label, 0)

    def labels(self) -> Dict[str, Number]:
        with self._lock:
            return dict(self._labels)

    def _reset(self) -> None:
        with self._lock:
            self._total = 0
            self._labels.clear()

    def _snapshot(self) -> Dict[str, Any]:
        with self._lock:
            entry: Dict[str, Any] = {"type": "counter", "value": self._total}
            if self._labels:
                entry["labels"] = dict(self._labels)
            return entry


class Gauge:
    """A value that can go up and down (e.g. live sessions)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value: Number = 0

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: Number = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> Number:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0

    def _snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"type": "gauge", "value": self._value}


class Histogram:
    """A fixed-bucket distribution; per-bucket counts plus sum and count.

    Buckets store *non-cumulative* counts internally; snapshots and the
    Prometheus rendering expose the conventional cumulative ``le`` form.
    """

    __slots__ = ("name", "buckets", "_lock", "_counts", "_overflow", "_sum", "_count")

    def __init__(self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS):
        self.name = name
        self.buckets = tuple(sorted(buckets))
        self._lock = threading.Lock()
        self._counts = [0] * len(self.buckets)
        self._overflow = 0  # observations above the last boundary (+Inf bucket)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[index] += 1
                    return
            self._overflow += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * len(self.buckets)
            self._overflow = 0
            self._sum = 0.0
            self._count = 0

    def _snapshot(self) -> Dict[str, Any]:
        with self._lock:
            cumulative: List[List[Number]] = []
            running = 0
            for bound, count in zip(self.buckets, self._counts):
                running += count
                cumulative.append([bound, running])
            return {
                "type": "histogram",
                "count": self._count,
                "sum": self._sum,
                "buckets": cumulative,
            }


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Thread-safe name → instrument store with get-or-create accessors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Instrument] = {}

    def _get_or_create(
        self, name: str, kind: type, factory: Callable[[], Instrument]
    ) -> Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {kind.__name__}"
                    )
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, label_name: str = "label") -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name, label_name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        return self._get_or_create(name, Histogram, lambda: Histogram(name, buckets))

    def get(self, name: str) -> Optional[Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def reset(self) -> None:
        """Zero every instrument's value; registrations are kept."""
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            instrument._reset()

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A JSON-able point-in-time view of every registered instrument."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        return {name: instrument._snapshot() for name, instrument in instruments}

    def render_prometheus(self) -> str:
        """Text exposition format 0.0.4 (what ``--metrics-port`` serves)."""
        lines: List[str] = []
        for name, entry in self.snapshot().items():
            metric = _prom_name(name)
            kind = entry["type"]
            lines.append(f"# TYPE {metric} {kind}")
            if kind == "counter":
                instrument = self.get(name)
                label_name = _prom_name(getattr(instrument, "label_name", "label"))
                for label, value in sorted(entry.get("labels", {}).items()):
                    lines.append(f'{metric}{{{label_name}="{_escape(label)}"}} {value}')
                lines.append(f"{metric}_total {entry['value']}")
            elif kind == "gauge":
                lines.append(f"{metric} {entry['value']}")
            else:  # histogram
                for bound, cumulative in entry["buckets"]:
                    lines.append(f'{metric}_bucket{{le="{bound}"}} {cumulative}')
                lines.append(f'{metric}_bucket{{le="+Inf"}} {entry["count"]}')
                lines.append(f"{metric}_sum {entry['sum']}")
                lines.append(f"{metric}_count {entry['count']}")
        return "\n".join(lines) + "\n"


def _prom_name(name: str) -> str:
    sanitized = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _escape(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


#: The process-wide registry every subsystem reports into.
REGISTRY = MetricsRegistry()


def counter(name: str, label_name: str = "label") -> Counter:
    """Get-or-create ``name`` on the process registry."""
    return REGISTRY.counter(name, label_name)


def gauge(name: str) -> Gauge:
    """Get-or-create ``name`` on the process registry."""
    return REGISTRY.gauge(name)


def histogram(name: str, buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
    """Get-or-create ``name`` on the process registry."""
    return REGISTRY.histogram(name, buckets)


def reset() -> None:
    """Zero the process registry (tests)."""
    REGISTRY.reset()
