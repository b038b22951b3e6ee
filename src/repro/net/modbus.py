"""ModBus process-image gateway.

In the paper's hardware-in-loop rig, a gateway FireFly node speaks ModBus to
the workstation running Unisim and RT-Link to the wireless side.  We model:

- a :class:`ProcessImage` -- the gateway's register map.  Registers are
  16-bit, with a per-register scale factor, so values cross the wire with
  realistic quantization;
- a :class:`ModbusSerialLink` -- the workstation<->gateway serial channel
  with per-transaction latency, used by the plant HIL bridge;
- a :class:`ModbusGatewayService` -- the radio-facing request handler:
  ``modbus.read`` / ``modbus.write`` frames from wireless nodes are applied
  to the image and (for reads) answered with ``modbus.resp``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.net.mac.base import MacProtocol
from repro.net.packet import Packet
from repro.sim.clock import MS
from repro.sim.engine import Engine

RAW_MIN = 0
RAW_MAX = 0xFFFF


@dataclass
class RegisterSpec:
    """One 16-bit register: engineering range [lo, hi] maps onto 0..65535."""

    address: int
    name: str
    lo: float = 0.0
    hi: float = 100.0

    def encode(self, value: float) -> int:
        span = self.hi - self.lo
        if span <= 0:
            raise ValueError(f"register {self.name!r} has empty range")
        frac = (value - self.lo) / span
        raw = round(frac * RAW_MAX)
        return min(RAW_MAX, max(RAW_MIN, raw))

    def decode(self, raw: int) -> float:
        return self.lo + (raw / RAW_MAX) * (self.hi - self.lo)


class ProcessImage:
    """The register map shared by the plant bridge and the radio gateway."""

    def __init__(self) -> None:
        self._specs: dict[int, RegisterSpec] = {}
        self._raw: dict[int, int] = {}
        self._write_hooks: list[Callable[[int, float], None]] = []

    def define(self, address: int, name: str, lo: float = 0.0,
               hi: float = 100.0, initial: float = 0.0) -> RegisterSpec:
        if address in self._specs:
            raise ValueError(f"register {address} already defined")
        spec = RegisterSpec(address=address, name=name, lo=lo, hi=hi)
        self._specs[address] = spec
        self._raw[address] = spec.encode(initial)
        return spec

    def spec(self, address: int) -> RegisterSpec:
        if address not in self._specs:
            raise KeyError(f"undefined register {address}")
        return self._specs[address]

    def read(self, address: int) -> float:
        return self.spec(address).decode(self._raw[address])

    def read_raw(self, address: int) -> int:
        self.spec(address)
        return self._raw[address]

    def write(self, address: int, value: float) -> None:
        spec = self.spec(address)
        self._raw[address] = spec.encode(value)
        for hook in self._write_hooks:
            hook(address, self.read(address))

    def on_write(self, hook: Callable[[int, float], None]) -> None:
        """Observe every write (HIL bridge pushes actuator writes to plant)."""
        self._write_hooks.append(hook)


class ModbusSerialLink:
    """Workstation <-> gateway serial channel with transaction latency."""

    def __init__(self, engine: Engine, image: ProcessImage,
                 transaction_ticks: int = 5 * MS) -> None:
        self.engine = engine
        self.image = image
        self.transaction_ticks = transaction_ticks
        self.transactions = 0

    def read_async(self, address: int,
                   callback: Callable[[float], None]) -> None:
        """Deliver the register value after one transaction delay."""
        self.transactions += 1

        def finish() -> None:
            callback(self.image.read(address))

        self.engine.post(self.transaction_ticks, finish)

    def write_async(self, address: int, value: float,
                    callback: Callable[[], None] | None = None) -> None:
        """Apply a write after one transaction delay."""
        self.transactions += 1

        def finish() -> None:
            self.image.write(address, value)
            if callback is not None:
                callback()

        self.engine.post(self.transaction_ticks, finish)

    def write_many_async(self, items: list[tuple[int, float]]) -> None:
        """Apply a batch of writes after one transaction delay.

        The whole batch rides a single engine event (the HIL bridge
        publishes every sensor PV each plant step; per-write closures
        dominated that path) but still counts one transaction per
        register, and the writes apply in list order -- exactly the
        outcome of ``write_async`` per item.
        """
        self.transactions += len(items)
        self.engine.post(self.transaction_ticks, self._apply_many, items)

    def _apply_many(self, items: list[tuple[int, float]]) -> None:
        write = self.image.write
        for address, value in items:
            write(address, value)


class ModbusGatewayService:
    """Radio-side request handler running on the gateway node.

    Wireless peers send frames:

    - ``kind="modbus.read"``, payload ``address`` -> answered with
      ``kind="modbus.resp"``, payload ``(address, value)``;
    - ``kind="modbus.write"``, payload ``(address, value)`` -> applied,
      no response (class-0 write).

    Responses are queued on the gateway's MAC and ride its TDMA slots.
    """

    def __init__(self, engine: Engine, mac: MacProtocol,
                 image: ProcessImage) -> None:
        self.engine = engine
        self.mac = mac
        self.image = image
        self.reads_served = 0
        self.writes_applied = 0
        self.errors = 0
        self._fallthrough: Callable[[Packet], None] | None = None
        mac.set_receive_handler(self._on_packet)

    def set_fallthrough(self, fn: Callable[[Packet], None]) -> None:
        """Non-ModBus frames arriving at the gateway go here."""
        self._fallthrough = fn

    def _on_packet(self, packet: Packet) -> None:
        if packet.kind == "modbus.read":
            self._serve_read(packet)
        elif packet.kind == "modbus.write":
            self._apply_write(packet)
        elif self._fallthrough is not None:
            self._fallthrough(packet)

    def _serve_read(self, request: Packet) -> None:
        address = request.payload
        try:
            value = self.image.read(address)
        except KeyError:
            self.errors += 1
            return
        self.reads_served += 1
        response = Packet(src=self.mac.node_id, dst=request.src,
                          kind="modbus.resp", payload=(address, value),
                          size_bytes=8, created_at=self.engine.now)
        self.mac.send(response)

    def _apply_write(self, request: Packet) -> None:
        address, value = request.payload
        try:
            self.image.write(address, value)
        except KeyError:
            self.errors += 1
            return
        self.writes_applied += 1
