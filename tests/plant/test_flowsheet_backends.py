"""Backend conformance: fused kernels == scalar reference, bit for bit.

``Flowsheet(backend="py")`` is the executable specification (the
per-unit scalar ``step()`` sweep).  The fused kernels ("auto") must
reproduce *exactly* the same floats -- not approximately: the golden
workload digests hash every sensor reading, so a single ULP of drift
anywhere breaks reproducibility.
"""

from __future__ import annotations

import pytest

from repro.plant.components import Stream
from repro.plant.flowsheet import Flowsheet
from repro.plant.gas_plant import NaturalGasPlant


def plant_state(plant: NaturalGasPlant) -> dict:
    """Every float the plant exposes, exactly as produced."""
    state = dict(plant.flowsheet.snapshot())
    state["stream_table"] = plant.stream_table()
    state["inlet_sep_holdup"] = [float(h) for h in plant.inlet_sep.holdup]
    state["lts_holdup"] = [float(h) for h in plant.lts.holdup]
    state["drum_holdup"] = [float(h)
                            for h in plant.depropanizer.drum_holdup]
    state["sump_holdup"] = [float(h)
                            for h in plant.depropanizer.sump_holdup]
    state["overflow"] = (plant.inlet_sep.overflow_mol,
                         plant.lts.overflow_mol)
    state["blow_by"] = (plant.inlet_sep.blow_by_flow,
                        plant.lts.blow_by_flow)
    state["pressures"] = (plant.sales_header.pressure_kpa,
                          plant.depropanizer.pressure_kpa)
    state["valves"] = [(v.opening_pct, v.command_pct)
                       for v in (plant.inlet_sep_valve, plant.lts_valve,
                                 plant.sales_valve, plant.distillate_valve,
                                 plant.bottoms_valve,
                                 plant.deprop_gas_valve)]
    return state


def drive(plant: NaturalGasPlant, steps: int) -> list[dict]:
    """A workout hitting every kernel branch: steady stepping, feed
    loss (empty-stream paths), feed surge (blow-by + overflow),
    actuator slams, and recovery."""
    plant.enable_local_control(exclude=("lts_level",))
    plant.flowsheet.write("lts_liquid_valve_pct", 11.5)
    snapshots = []
    nominal_feed1 = plant.feed1
    for k in range(steps):
        if k == steps // 4:          # feed 1 lost: empty/low-flow paths
            plant.feed1 = Stream(0.0, nominal_feed1.composition, 25.0,
                                 4000.0)
        if k == steps // 2:          # surge: blow-by and overflow paths
            plant.feed1 = Stream(240.0, nominal_feed1.composition, 25.0,
                                 4000.0)
            plant.flowsheet.write("lts_liquid_valve_pct", 95.0)
        if k == (3 * steps) // 4:    # recovery
            plant.feed1 = nominal_feed1
            plant.flowsheet.write("lts_liquid_valve_pct", 11.5)
        plant.step(0.5)
        if k % 7 == 0:
            snapshots.append(plant_state(plant))
    snapshots.append(plant_state(plant))
    return snapshots


def test_backend_matches_scalar_reference_exactly():
    reference = drive(NaturalGasPlant(backend="py"), steps=400)
    fused = drive(NaturalGasPlant(backend="auto"), steps=400)
    assert fused == reference


def test_unknown_backend_rejected():
    for backend in ("cuda", "np"):
        with pytest.raises(ValueError, match="unknown backend"):
            Flowsheet("x", backend=backend)


def test_default_backend_is_auto():
    assert NaturalGasPlant().flowsheet.backend == "auto"
    assert Flowsheet("x").backend == "auto"


@pytest.mark.parametrize("backend", ["auto", "py"])
def test_snapshot_values_are_plain_floats(backend):
    plant = NaturalGasPlant(backend=backend)
    plant.enable_local_control()
    for _ in range(20):
        plant.step(0.5)
    for name, value in plant.flowsheet.snapshot().items():
        assert type(value) is float, name
    for stream in plant.stream_table().values():
        for key, value in stream.items():
            assert isinstance(value, float), key
