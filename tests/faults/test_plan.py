"""The fault-injection registry: spec grammar, determinism, arming, catalog."""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

import pytest

from repro import faults
from repro.faults import FaultArm, FaultPlan, FaultSpecError
from repro.obs import metrics as obs_metrics


@pytest.fixture(autouse=True)
def disarmed():
    faults.disarm()
    yield
    faults.disarm()


class TestSpecGrammar:
    def test_single_arm(self):
        plan = FaultPlan.parse("wal.append_ioerror:count=1:after=5")
        arm = plan.arm_for("wal.append_ioerror")
        assert arm is not None
        assert (arm.count, arm.after) == (1, 5)

    def test_multiple_arms(self):
        plan = FaultPlan.parse("net.drop:every=7:after=2,net.stall:every=11:ms=2")
        assert plan.sites == ["net.drop", "net.stall"]
        assert plan.arm_for("net.stall").stall_ms == 2.0

    def test_probability_and_seed(self):
        arm = FaultPlan.parse("wal.fsync_ioerror:p=0.25:seed=42").arm_for("wal.fsync_ioerror")
        assert (arm.probability, arm.seed) == (0.25, 42)

    @pytest.mark.parametrize(
        "spec",
        [
            "nosuch.site",
            "wal.append_ioerror:p=2",
            "wal.append_ioerror:count=0",
            "wal.append_ioerror:bogus=1",
            "wal.append_ioerror:count",
            "wal.append_ioerror:count=x",
            "",
            "net.drop,net.drop",
        ],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(spec)


class TestDeterminism:
    def test_every_after_count_schedule(self):
        arm = FaultArm("net.drop", every=3, after=2, count=2)
        fires = [arm.should_fire() for _ in range(12)]
        # Passes 1-2 are warm-up; then every 3rd pass fires, capped at 2.
        assert [i + 1 for i, fired in enumerate(fires) if fired] == [5, 8]

    def test_seeded_probability_is_reproducible(self):
        first = FaultArm("net.drop", probability=0.5, seed=7)
        second = FaultArm("net.drop", probability=0.5, seed=7)
        assert [first.should_fire() for _ in range(50)] == [
            second.should_fire() for _ in range(50)
        ]

    def test_count_exhausts(self):
        arm = FaultArm("net.drop", count=1)
        assert [arm.should_fire() for _ in range(3)] == [True, False, False]


class TestGlobalSwitch:
    def test_disarmed_fire_is_false(self):
        assert faults.fire("net.drop") is False

    def test_undeclared_site_raises_even_disarmed(self):
        with pytest.raises(KeyError):
            faults.fire("nosuch.site")

    def test_arm_fire_disarm(self):
        faults.arm("net.drop:count=1")
        assert faults.fire("net.drop") is True
        assert faults.fire("net.drop") is False  # count exhausted
        faults.disarm()
        assert faults.fire("net.drop") is False

    def test_fires_are_counted_in_metrics(self):
        faults.arm("net.stall:count=2")
        before = _injected_count("net.stall")
        assert faults.fire("net.stall") and faults.fire("net.stall")
        assert _injected_count("net.stall") == before + 2
        assert faults.active().injected_counts()["net.stall"] == 2

    def test_env_arming(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "net.drop:count=1")
        plan = faults.install_from_env()
        assert plan is not None and plan.sites == ["net.drop"]
        assert faults.fire("net.drop") is True

    def test_env_arming_rejects_bad_spec(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "not a spec")
        with pytest.raises(FaultSpecError):
            faults.install_from_env()

    def test_stall_ms_reads_armed_duration(self):
        faults.arm("net.stall:ms=3")
        assert faults.stall_ms("net.stall") == 3.0
        faults.disarm()
        assert faults.stall_ms("net.stall") == faults.DEFAULT_STALL_MS


@lru_cache(maxsize=None)
def _fired_sites() -> frozenset:
    """Literal site names passed to ``faults.fire`` anywhere in the package."""
    package = Path(faults.__file__).resolve().parents[1]
    fired = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "fire"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "faults"
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                fired.add(node.args[0].value)
    return frozenset(fired)


class TestCatalog:
    @pytest.mark.parametrize("site", sorted(faults.SITES))
    def test_every_declared_site_has_a_call_site(self, site):
        # A declared site nothing fires is a fault plan that never triggers.
        assert site in _fired_sites()

    @pytest.mark.parametrize(
        "site", ["shm.create_fail", "shm.attach_fail", "pool.worker_kill", "pool.worker_stall"]
    )
    def test_retired_sites_are_undeclared(self, site):
        # The shared-memory transport and the worker pool are gone, and so
        # are their sites: arming or firing one is an error, not a no-op.
        assert site not in faults.SITES
        with pytest.raises(FaultSpecError):
            faults.arm(f"{site}:count=1")
        with pytest.raises(KeyError):
            faults.fire(site)


def _injected_count(site: str) -> int:
    snapshot = obs_metrics.REGISTRY.snapshot().get("faults.injected", {})
    return int(snapshot.get("labels", {}).get(site, 0))
