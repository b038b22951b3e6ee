"""Wireless network substrate.

Everything between the radio hardware and the EVM: a shared propagation
medium with collision and loss modeling, explicit topologies, the three MAC
protocols the paper discusses (RT-Link TDMA, B-MAC low-power-listen CSMA,
S-MAC loosely-synchronized duty cycling), implicit tree routing, and the
ModBus register gateway that bridges the radio network to the plant
simulator.
"""

from repro.net.link_quality import LinkQualityModel, PerfectLinks
from repro.net.medium import Medium
from repro.net.packet import BROADCAST, Packet
from repro.net.topology import Topology

__all__ = [
    "Packet",
    "BROADCAST",
    "Topology",
    "Medium",
    "LinkQualityModel",
    "PerfectLinks",
]
