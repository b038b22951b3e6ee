"""Discrete-event simulation kernel.

All EVM substrates (radio medium, MAC protocols, the nano-RK RTOS model,
the plant hardware-in-loop bridge) run on this kernel.  Simulated time is
kept in **integer microseconds** so that sub-millisecond effects -- the
paper's sub-150 microsecond time-synchronization jitter, TDMA slot edges,
interrupt latencies -- are representable exactly and the event queue stays
deterministic.

Public surface:

- :class:`~repro.sim.clock.SimClock` and the tick constants
  (:data:`~repro.sim.clock.US`, :data:`~repro.sim.clock.MS`,
  :data:`~repro.sim.clock.SEC`)
- :class:`~repro.sim.engine.Engine` -- the event loop
- :class:`~repro.sim.engine.EventHandle` -- cancellation token
- :class:`~repro.sim.process.Process`, :class:`~repro.sim.process.Delay` --
  generator-style processes that wait only on time
- :class:`~repro.sim.rng.RngRegistry` -- named deterministic random streams
- :class:`~repro.sim.trace.Trace` / :class:`~repro.sim.trace.TraceEvent` --
  structured event recording used by experiments and tests
"""

from repro.sim.clock import MS, SEC, US, SimClock, format_time
from repro.sim.engine import Engine, EventHandle, SimulationError
from repro.sim.process import Delay, Process
from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace, TraceEvent

__all__ = [
    "US",
    "MS",
    "SEC",
    "SimClock",
    "format_time",
    "Engine",
    "EventHandle",
    "SimulationError",
    "Process",
    "Delay",
    "RngRegistry",
    "Trace",
    "TraceEvent",
]
