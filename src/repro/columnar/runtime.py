"""NumPy availability gate for the columnar execution layer.

NumPy is an *optional* dependency: every columnar kernel has a pure-Python
twin, which runs wherever the vectorized backend is not importable — the
same plans and strategies, the same output.  The gate is centralised here
so tests (and the no-NumPy CI job) can force the fallback path without
uninstalling anything — ``REPRO_NO_NUMPY=1`` or the :func:`forced_python`
context manager make the whole stack behave as if NumPy were absent.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Iterator, Optional

try:  # pragma: no cover - exercised implicitly by every kernel call
    import numpy as _numpy
except Exception:  # pragma: no cover - the no-NumPy environment
    _numpy = None

#: Test hook: when ``True`` the runtime pretends NumPy is unavailable.
_force_python = False


def numpy_or_none() -> Any:
    """The ``numpy`` module, or ``None`` when absent or forced off."""
    if _force_python or os.environ.get("REPRO_NO_NUMPY"):
        return None
    return _numpy


def numpy_available() -> bool:
    """Whether the vectorized kernels can run (imports + overrides)."""
    return numpy_or_none() is not None


@contextmanager
def forced_python() -> Iterator[None]:
    """Context manager that hides NumPy from the columnar layer.

    Used by the property tests to prove that the pure-Python fallback
    produces bit-identical results, and handy for benchmarking the fallback
    without a second virtualenv.
    """
    global _force_python
    previous = _force_python
    _force_python = True
    try:
        yield
    finally:
        _force_python = previous


def resolve_use_numpy(use_numpy: Optional[bool]) -> bool:
    """Normalise a kernel's ``use_numpy`` argument.

    ``None`` means "use NumPy when available"; ``True`` demands it (raising
    ``RuntimeError`` when absent, so a silent scalar run cannot masquerade as
    a vectorized measurement); ``False`` selects the pure-Python twin.
    """
    if use_numpy is None:
        return numpy_available()
    if use_numpy and not numpy_available():
        raise RuntimeError("NumPy was requested explicitly but is not available")
    return use_numpy
