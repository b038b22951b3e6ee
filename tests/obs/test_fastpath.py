"""The disabled-telemetry fast path must stay free.

With ``repro.obs`` off (the default), every instrumented subsystem
binds ``self._obs = None`` at construction and hot sites pay exactly
one ``is not None`` test -- no registry, no metric objects, and no
allocations attributed to the obs package at all.  These are the
regression tests behind the "telemetry off costs nothing" claim the
BENCH trend gate rests on.
"""

import sys
import tracemalloc

import repro.obs as obs
from repro.net.medium import Medium
from repro.net.topology import line
from repro.sim.engine import Engine


def _assert_disabled():
    assert not obs.enabled()
    assert obs.get_registry() is None


def test_default_state_is_disabled():
    _assert_disabled()


def test_enable_disable_roundtrip():
    _assert_disabled()
    try:
        reg = obs.enable()
        assert obs.enabled()
        assert obs.enable() is reg  # idempotent without an explicit arg
        custom = obs.MetricsRegistry()
        assert obs.enable(custom) is custom
        assert obs.get_registry() is custom
    finally:
        obs.disable()
    _assert_disabled()


def test_instrumented_constructors_bind_none_when_disabled():
    from repro.evm.interpreter import Interpreter
    from repro.plant.gas_plant import NaturalGasPlant
    from repro.rtos.scheduler import Scheduler

    _assert_disabled()
    engine = Engine()
    medium = Medium(engine, line(["a", "b"]))
    assert engine._obs is None
    assert medium._obs is None
    assert Interpreter()._obs is None
    assert Scheduler(Engine())._obs is None
    assert NaturalGasPlant()._obs is None


def test_meter_factories_return_none_when_disabled():
    from repro.obs import instrument

    _assert_disabled()
    for factory in (instrument.engine_meters, instrument.medium_meters,
                    instrument.rtlink_meters, instrument.vm_meters,
                    instrument.scheduler_meters, instrument.evm_meters,
                    instrument.health_meters, instrument.plant_meters,
                    instrument.campaign_meters):
        assert factory() is None


def _engine_workload() -> int:
    engine = Engine()
    hits = []
    for i in range(200):
        engine.schedule(i * 100, hits.append, i)
    engine.run()
    return len(hits)


def test_zero_obs_allocations_when_disabled():
    """tracemalloc attributes no allocations to repro/obs files while a
    workload runs with telemetry off."""
    _assert_disabled()
    _engine_workload()  # warm caches outside the traced window
    obs_filter = tracemalloc.Filter(True, "*repro/obs/*")
    tracemalloc.start(10)
    try:
        before = tracemalloc.take_snapshot()
        assert _engine_workload() == 200
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    diff = after.filter_traces([obs_filter]).compare_to(
        before.filter_traces([obs_filter]), "lineno")
    grew = [stat for stat in diff if stat.size_diff > 0]
    assert not grew, f"obs allocated while disabled: {grew}"


def test_disabled_workload_touches_no_registry_state():
    """Running a workload while disabled leaves a subsequently enabled
    registry completely empty -- nothing leaked through the off path."""
    _assert_disabled()
    _engine_workload()
    try:
        reg = obs.enable(obs.MetricsRegistry())
        assert reg.values() == {}
        assert reg.bundles == {}
    finally:
        obs.disable()


def test_repro_obs_env_enables_fresh_processes():
    """``REPRO_OBS=1`` flips telemetry on at import -- the path that
    carries enablement into pool and dist worker subprocesses."""
    import subprocess

    code = ("import repro.obs as obs; "
            "print('enabled' if obs.enabled() else 'disabled')")
    for env_value, expected in (("1", "enabled"), ("", "disabled"),
                                ("yes", "enabled"), ("0", "disabled")):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": "src", "REPRO_OBS": env_value},
            cwd="/root/repo", capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected
