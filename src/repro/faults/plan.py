"""Deterministic fault arming: the :class:`FaultPlan` and the global switch.

A plan is a set of *arms*, one per site, each describing **when** the site
fires: after an optional warm-up (``after=``), on every Nth pass
(``every=``), or with a seeded probability (``p=`` + ``seed=``), for at most
``count=`` fires.  The spec grammar — the value of the ``REPRO_FAULTS``
environment variable and the argument of :func:`arm` — is::

    spec    := arm ("," arm)*
    arm     := site (":" key "=" value)*
    key     := "p" | "seed" | "count" | "after" | "every" | "ms"

Examples::

    REPRO_FAULTS="wal.append_ioerror:count=1:after=5"
    REPRO_FAULTS="net.drop:every=7:after=2,net.stall:every=11:ms=2"
    REPRO_FAULTS="wal.fsync_ioerror:p=0.2:seed=42:count=3"

Determinism is the point: ``every=``/``after=``/``count=`` arms fire at
exact pass numbers, and probabilistic arms draw from a private
``random.Random(seed)`` — the same plan over the same workload fires at the
same operations every run, which is what lets the chaos scenario's recovery
gates be exact instead of statistical.

:func:`fire` is the hot-path query the injection points call.  Disarmed (the
overwhelmingly common case) it is one global read and a ``None`` check;
armed, every trigger increments the ``faults.injected{site}`` counter in the
process metrics registry, so "every armed fault was actually observed" is a
checkable gate, not an assumption.
"""

from __future__ import annotations

import os
import random
import threading
from typing import Dict, List, Optional

from repro.faults.sites import SITES
from repro.obs import metrics as obs_metrics

_INJECTED = obs_metrics.counter("faults.injected", label_name="site")

#: Environment variable holding the spec to arm at first use / server start.
ENV_VAR = "REPRO_FAULTS"

#: Default stall duration when an arm carries no ``ms=`` key.
DEFAULT_STALL_MS = 10.0


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` spec (or :func:`arm` argument) is malformed."""


class FaultArm:
    """One site's trigger rule plus its runtime firing state."""

    def __init__(
        self,
        site: str,
        probability: float = 1.0,
        seed: int = 0,
        count: Optional[int] = None,
        after: int = 0,
        every: int = 0,
        stall_ms: float = DEFAULT_STALL_MS,
    ):
        if site not in SITES:
            raise FaultSpecError(
                f"unknown fault site {site!r}; declared sites: {', '.join(sorted(SITES))}"
            )
        if not 0.0 <= probability <= 1.0:
            raise FaultSpecError(f"{site}: p={probability} outside [0, 1]")
        if count is not None and count < 1:
            raise FaultSpecError(f"{site}: count={count} must be >= 1")
        if after < 0 or every < 0:
            raise FaultSpecError(f"{site}: after/every must be >= 0")
        if stall_ms < 0:
            raise FaultSpecError(f"{site}: ms={stall_ms} must be >= 0")
        self.site = site
        self.probability = probability
        self.seed = seed
        self.count = count
        self.after = after
        self.every = every
        self.stall_ms = stall_ms
        self.passes = 0
        self.fires = 0
        self._rng = random.Random(seed)

    def should_fire(self) -> bool:
        """Advance one pass and decide; counts the fire when it happens."""
        self.passes += 1
        if self.passes <= self.after:
            return False
        if self.count is not None and self.fires >= self.count:
            return False
        if self.every:
            triggered = (self.passes - self.after) % self.every == 0
        elif self.probability >= 1.0:
            triggered = True
        else:
            triggered = self._rng.random() < self.probability
        if triggered:
            self.fires += 1
        return triggered


class FaultPlan:
    """A set of armed sites; thread-safe (the server and clients share it)."""

    def __init__(self, arms: Optional[List[FaultArm]] = None):
        self._arms: Dict[str, FaultArm] = {}
        self._lock = threading.Lock()
        for arm_rule in arms or []:
            if arm_rule.site in self._arms:
                raise FaultSpecError(f"site {arm_rule.site!r} armed twice in one plan")
            self._arms[arm_rule.site] = arm_rule

    @classmethod
    def parse(cls, spec: str) -> FaultPlan:
        """Build a plan from the ``REPRO_FAULTS`` grammar (module docstring)."""
        arms: List[FaultArm] = []
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            site, _, options = chunk.partition(":")
            keys: Dict[str, str] = {}
            if options:
                for option in options.split(":"):
                    key, separator, value = option.partition("=")
                    if not separator or not key or not value:
                        raise FaultSpecError(
                            f"malformed option {option!r} in arm {chunk!r} "
                            "(expected key=value)"
                        )
                    keys[key] = value
            unknown = set(keys) - {"p", "seed", "count", "after", "every", "ms"}
            if unknown:
                raise FaultSpecError(
                    f"unknown option(s) {sorted(unknown)} in arm {chunk!r}"
                )
            try:
                arms.append(
                    FaultArm(
                        site.strip(),
                        probability=float(keys.get("p", "1")),
                        seed=int(keys.get("seed", "0")),
                        count=int(keys["count"]) if "count" in keys else None,
                        after=int(keys.get("after", "0")),
                        every=int(keys.get("every", "0")),
                        stall_ms=float(keys.get("ms", str(DEFAULT_STALL_MS))),
                    )
                )
            except ValueError as error:
                if isinstance(error, FaultSpecError):
                    raise
                raise FaultSpecError(f"bad numeric value in arm {chunk!r}: {error}") from error
        if not arms:
            raise FaultSpecError(f"fault spec {spec!r} arms no site")
        return cls(arms)

    @property
    def sites(self) -> List[str]:
        return sorted(self._arms)

    def arm_for(self, site: str) -> Optional[FaultArm]:
        return self._arms.get(site)

    def fire(self, site: str) -> bool:
        arm_rule = self._arms.get(site)
        if arm_rule is None:
            return False
        with self._lock:
            triggered = arm_rule.should_fire()
        if triggered:
            _INJECTED.inc(label=site)
        return triggered

    def injected_counts(self) -> Dict[str, int]:
        """Fires per armed site so far (this process only)."""
        with self._lock:
            return {site: arm_rule.fires for site, arm_rule in self._arms.items()}


#: The process-global armed plan; ``None`` means every site is quiet.
_ACTIVE: Optional[FaultPlan] = None
_ENV_CHECKED = False


def arm(plan_or_spec: "FaultPlan | str") -> FaultPlan:
    """Activate a plan process-wide (replacing any previous one)."""
    global _ACTIVE, _ENV_CHECKED
    plan = (
        FaultPlan.parse(plan_or_spec)
        if isinstance(plan_or_spec, str)
        else plan_or_spec
    )
    _ACTIVE = plan
    _ENV_CHECKED = True  # an explicit arm overrides the environment
    return plan


def disarm() -> None:
    """Deactivate fault injection (the environment is not re-read)."""
    global _ACTIVE, _ENV_CHECKED
    _ACTIVE = None
    _ENV_CHECKED = True


def active() -> Optional[FaultPlan]:
    """The armed plan, lazily arming from ``REPRO_FAULTS`` on first use."""
    global _ACTIVE, _ENV_CHECKED
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        spec = os.environ.get(ENV_VAR)
        if spec:
            _ACTIVE = FaultPlan.parse(spec)
    return _ACTIVE


def install_from_env() -> Optional[FaultPlan]:
    """Arm from ``REPRO_FAULTS`` *now* (surfacing spec errors eagerly).

    The serve CLI calls this at startup so a typo'd spec aborts the boot
    instead of silently never firing; returns the armed plan or ``None``
    when the variable is unset/empty.
    """
    global _ACTIVE, _ENV_CHECKED
    _ENV_CHECKED = True
    spec = os.environ.get(ENV_VAR)
    _ACTIVE = FaultPlan.parse(spec) if spec else None
    return _ACTIVE


def fire(site: str) -> bool:
    """Should the operation at ``site`` fail right now?

    The injection-point query: cheap when disarmed, deterministic when
    armed, counted in ``faults.injected{site}`` on every trigger.  An
    undeclared site raises ``KeyError`` even when no plan is armed — a typo
    must not create a dead injection point.
    """
    if site not in SITES:
        raise KeyError(f"fire() on undeclared fault site {site!r}")
    plan = active()
    if plan is None:
        return False
    return plan.fire(site)


def stall_ms(site: str) -> float:
    """The armed ``ms=`` duration of a stall site (its default when unarmed)."""
    plan = active()
    arm_rule = plan.arm_for(site) if plan is not None else None
    return DEFAULT_STALL_MS if arm_rule is None else arm_rule.stall_ms
