"""Columnar batch execution of the adjustment primitives.

The hot paths of alignment and normalization walk Python objects one tuple
at a time; this package re-expresses them as whole-array operations over a
columnar encoding of the relation (int64 endpoint arrays plus a
dictionary-encoded equality key, see :mod:`repro.columnar.encoding`) with
NumPy-backed kernels (:mod:`repro.columnar.kernels`) and pure-Python twins
so NumPy stays an optional dependency.

Consumers:

* the relation-level operators (``align_relation``/``normalize``), whose
  default ``"columnar"`` strategy runs the kernels over cached frames;
* the engine's ``ColumnarAdjustmentNode``, which runs one
  :class:`~repro.engine.executor.columnar_adjustment.AdjustmentTask` per
  execution through :mod:`repro.columnar.rows` — NumPy kernels over int64
  bounds, the pure-Python twins over any other bounds.

Everything here is bound by one hard contract: the kernels produce the
identical relation as the references (core's ``"sweep"`` strategy and the
engine's ``enable_columnar=False`` row plan) on every input.
"""

from repro.columnar.encoding import (
    ColumnarFrame,
    encode_keys,
    encode_relation,
    remap_codes,
)
from repro.columnar.kernels import (
    align_pieces,
    normalize_pieces,
    normalize_pieces_from_intervals,
)
from repro.columnar.rows import kernel_mode
from repro.columnar.runtime import forced_python, numpy_available

__all__ = [
    "ColumnarFrame",
    "align_pieces",
    "encode_keys",
    "encode_relation",
    "forced_python",
    "kernel_mode",
    "normalize_pieces",
    "normalize_pieces_from_intervals",
    "remap_codes",
]
