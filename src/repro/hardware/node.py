"""The composed FireFly platform.

A :class:`FireFlyNode` bundles the MCU, radio, battery, sensor suite and
synchronized clock behind one object with a stable ``node_id``.  Higher
layers (MAC, RTOS, EVM) attach themselves to a node; the node itself stays a
passive hardware container.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.hardware.battery import Battery, BatterySpec
from repro.hardware.mcu import Mcu, McuSpec
from repro.hardware.radio import Radio, RadioSpec
from repro.hardware.sensors import Sensor, standard_sensor_suite
from repro.hardware.timesync import AmTimeSync, NodeClock
from repro.sim.engine import Engine


@dataclass(frozen=True)
class NodePosition:
    """Planar placement in meters, used by the radio propagation model."""

    x: float
    y: float

    def distance_to(self, other: "NodePosition") -> float:
        return ((self.x - other.x) ** 2 + (self.y - other.y) ** 2) ** 0.5


class FireFlyNode:
    """One FireFly mote: hardware only; protocol stacks attach on top.

    :attr:`rng` is the node's own random stream (sensor noise, B-MAC and
    S-MAC backoff).  A node built without ``rng=`` draws from
    ``random.Random(0)``, made on first read, so a node that never draws
    (no sensors, an RT-Link MAC) holds no generator at all.
    """

    def __init__(
        self,
        engine: Engine,
        node_id: str,
        position: NodePosition | None = None,
        mcu_spec: McuSpec | None = None,
        radio_spec: RadioSpec | None = None,
        battery_spec: BatterySpec | None = None,
        drift_ppm: float = 10.0,
        rng: random.Random | None = None,
        with_sensors: bool = True,
    ) -> None:
        self.engine = engine
        self.node_id = node_id
        self.position = position or NodePosition(0.0, 0.0)
        self._rng = rng
        self.mcu = Mcu(mcu_spec)
        self.battery = Battery(engine, battery_spec)
        self.radio = Radio(engine, self.battery, radio_spec)
        self.clock = NodeClock(engine, drift_ppm=drift_ppm)
        self.sensors: dict[str, Sensor] = (
            standard_sensor_suite(engine, self.battery, self.rng)
            if with_sensors else {})
        self.failed = False

    @property
    def rng(self) -> random.Random:
        if self._rng is None:
            self._rng = random.Random(0)
        return self._rng

    def join_timesync(self, sync: AmTimeSync) -> None:
        """Register this node's clock with the AM synchronization service."""
        sync.register(self.node_id, self.clock)

    def sensor(self, name: str) -> Sensor:
        if name not in self.sensors:
            raise KeyError(
                f"node {self.node_id!r} has no sensor {name!r}; "
                f"available: {sorted(self.sensors)}")
        return self.sensors[name]

    def fail(self) -> None:
        """Hard-fail the node (crash fault): radio off, flag set.

        Attached protocol stacks check :attr:`failed` before acting; the EVM
        failure-detection machinery reacts to the resulting silence.
        """
        self.failed = True
        from repro.hardware.radio import RadioState
        self.radio.set_state(RadioState.OFF)

    def recover(self) -> None:
        """Clear a crash fault (node rebooted)."""
        self.failed = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        status = "FAILED" if self.failed else "ok"
        return f"FireFlyNode({self.node_id!r}, {status})"
