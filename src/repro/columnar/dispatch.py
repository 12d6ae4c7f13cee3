"""Row/column dispatch for the relation-level operators.

The relation-level ``"auto"`` strategies consult this gate before choosing
the columnar kernels.  (The engine has none: its planner always plans the
``ColumnarAdjustment`` node.)  It is deliberately a constant-crossover check
because the native operators have no cost model to consult:

* NumPy must be importable (the pure-Python kernels exist for correctness
  and for explicit ``strategy="columnar"`` requests, but they do not beat
  the tuned row sweep — auto-dispatching to them would be a pessimisation);
* θ must be absent or reduced to an equality key — an opaque predicate
  forces a Python call per candidate pair;
* the combined input must clear a crossover below which encoding overhead
  dominates (:data:`DEFAULT_MIN_TUPLES`).
"""

from __future__ import annotations

from repro.columnar.runtime import numpy_available

#: Combined input cardinality below which auto-dispatch stays in row mode.
DEFAULT_MIN_TUPLES = 512


def auto_columnar(n_left: int, n_right: int, opaque_theta: bool = False) -> bool:
    """Whether ``"auto"`` should pick the columnar strategy."""
    if opaque_theta or not numpy_available():
        return False
    return n_left + n_right >= DEFAULT_MIN_TUPLES
