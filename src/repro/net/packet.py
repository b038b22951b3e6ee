"""MAC-layer frames.

A :class:`Packet` carries an arbitrary Python payload plus an explicit
``size_bytes`` so airtime and energy stay faithful even though we skip real
serialization.  EVM object transfers compute their sizes from the task images
they carry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

BROADCAST = "*"
"""Destination address meaning every node in radio range."""

_seq_counter = itertools.count(1)

HEADER_BYTES = 11
"""802.15.4 MAC header + FCS we charge on every frame."""


@dataclass
class Packet:
    """One MAC frame.

    ``kind`` is a dotted type tag used for dispatch (``"evm.health"``,
    ``"modbus.read"``, ...).  ``size_bytes`` is the MAC *payload* size; the
    total on-air size adds :data:`HEADER_BYTES` and the PHY header.
    """

    src: str
    dst: str
    kind: str
    payload: Any = None
    size_bytes: int = 32
    seq: int = field(default_factory=lambda: next(_seq_counter))
    created_at: int = 0
    hops: int = 0
    priority: int = 0
    """0 = control traffic (drained first); 1 = bulk (migration
    fragments, capsule dissemination) -- bulk transfers must not starve
    control loops sharing the node's TDMA slot."""

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"negative packet size {self.size_bytes}")

    @property
    def on_air_bytes(self) -> int:
        """Bytes the radio actually clocks out for this frame."""
        return self.size_bytes + HEADER_BYTES

    @property
    def is_broadcast(self) -> bool:
        return self.dst == BROADCAST

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Packet(#{self.seq} {self.kind} {self.src}->{self.dst} "
                f"{self.size_bytes}B)")
