"""Columnar batch execution of the adjustment primitives.

The hot paths of alignment and normalization walk Python objects one tuple
at a time; this package re-expresses them as whole-array operations over a
columnar encoding of the relation (int64 endpoint arrays plus a
dictionary-encoded equality key, see :mod:`repro.columnar.encoding`) with
NumPy-backed kernels (:mod:`repro.columnar.kernels`) and pure-Python twins
so NumPy stays an optional dependency.

Consumers:

* the relation-level operators (``align_relation``/``normalize``) expose a
  ``"columnar"`` strategy and auto-dispatch through
  :mod:`repro.columnar.dispatch`;
* the engine's ``ColumnarAdjustmentNode`` executes
  :class:`~repro.engine.executor.adjustment.AdjustmentTask` batches through
  :mod:`repro.columnar.rows`.

Everything here is bound by one hard contract: row mode and columnar mode
produce the identical relation on every input.
"""

from repro.columnar.dispatch import auto_columnar
from repro.columnar.encoding import (
    ColumnarFrame,
    encode_keys,
    encode_relation,
    peek_endpoint_arrays,
    remap_codes,
)
from repro.columnar.kernels import (
    align_pieces,
    normalize_pieces,
    normalize_pieces_from_intervals,
    overlap_pairs,
    pieces_from_pairs,
)
from repro.columnar.rows import ColumnarUnsupported, adjust_rows_columnar, kernel_mode
from repro.columnar.runtime import forced_python, numpy_available

__all__ = [
    "ColumnarFrame",
    "ColumnarUnsupported",
    "adjust_rows_columnar",
    "align_pieces",
    "auto_columnar",
    "encode_keys",
    "encode_relation",
    "forced_python",
    "kernel_mode",
    "normalize_pieces",
    "normalize_pieces_from_intervals",
    "overlap_pairs",
    "peek_endpoint_arrays",
    "pieces_from_pairs",
    "remap_codes",
]
