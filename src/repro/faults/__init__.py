"""Deterministic fault injection for every failure-prone boundary.

The registry (:mod:`repro.faults.plan`) arms named *sites* — declared once
in :mod:`repro.faults.sites` — by seed, count, probability or exact pass
number, via the ``REPRO_FAULTS`` environment variable or the :func:`arm`
API.  Injection points across the stack (WAL append/fsync/reset, snapshot
rename, server connection drop/stall) ask :func:`fire` whether to fail;
every trigger is counted as ``faults.injected{site}`` in the process
metrics registry.

The ``chaos`` bench scenario (docs/fault-injection.md) drives real clients
against a served database while a plan fires and hard-gates recovery,
client liveness and fault observability.
"""

from repro.faults.plan import (
    DEFAULT_STALL_MS,
    ENV_VAR,
    FaultArm,
    FaultPlan,
    FaultSpecError,
    active,
    arm,
    disarm,
    fire,
    install_from_env,
    stall_ms,
)
from repro.faults.sites import SITES

__all__ = [
    "DEFAULT_STALL_MS",
    "ENV_VAR",
    "FaultArm",
    "FaultPlan",
    "FaultSpecError",
    "SITES",
    "active",
    "arm",
    "disarm",
    "fire",
    "install_from_env",
    "stall_ms",
]
