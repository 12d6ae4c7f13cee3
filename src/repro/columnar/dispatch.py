"""Cost-based row/column dispatch for the relation-level operators.

The relation-level ``"auto"`` strategies consult this gate before choosing
the columnar kernels.  The engine has its own, richer gate (the planner's
:func:`~repro.engine.optimizer.cost.columnar_adjustment_cost` comparison);
this one is deliberately a constant-crossover check because the native
operators have no cost model to consult:

* NumPy must be importable (the pure-Python kernels exist for correctness
  and for explicit ``strategy="columnar"`` requests, but they do not beat
  the tuned row sweep — auto-dispatching to them would be a pessimisation);
* θ must be absent or reduced to an equality key — an opaque predicate
  forces a Python call per candidate pair;
* the combined input must clear a crossover below which encoding overhead
  dominates (``REPRO_COLUMNAR_MIN_TUPLES``, default 512).
"""

from __future__ import annotations

import os

from repro.columnar.runtime import numpy_available

#: Combined input cardinality below which auto-dispatch stays in row mode.
DEFAULT_MIN_TUPLES = 512


def min_columnar_tuples() -> int:
    """Crossover, overridable via ``REPRO_COLUMNAR_MIN_TUPLES``."""
    env = os.environ.get("REPRO_COLUMNAR_MIN_TUPLES")
    return int(env) if env else DEFAULT_MIN_TUPLES


def auto_columnar(n_left: int, n_right: int, opaque_theta: bool = False) -> bool:
    """Whether ``"auto"`` should pick the columnar strategy."""
    if opaque_theta or not numpy_available():
        return False
    return n_left + n_right >= min_columnar_tuples()
