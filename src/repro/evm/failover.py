"""Controller modes and head arbitration.

Each hosted instance of a logical task is in one of four modes (the case
study's lifecycle):

- **ACTIVE** -- computes and actuates;
- **BACKUP** -- computes (shadowing state via object transfers) and watches
  the active instance's outputs, but does not actuate;
- **INDICATOR** -- passive display/telemetry only (the demoted ex-primary
  immediately after failover);
- **DORMANT** -- installed but idle (the terminal state of the transition).

When a backup confirms a fault it informs the Virtual Component's head; the
head's :class:`Arbitrator` picks the replacement among capable candidates and
issues the mode changes.  Scoring prefers healthy nodes with capacity
headroom, then lower hop distance to the actuator, then stable ids -- a
deterministic rule every node can verify.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class ControllerMode(enum.Enum):
    ACTIVE = "active"
    BACKUP = "backup"
    INDICATOR = "indicator"
    DORMANT = "dormant"

    @property
    def computes(self) -> bool:
        """Does this mode run the control law each cycle?"""
        return self in (ControllerMode.ACTIVE, ControllerMode.BACKUP)

    @property
    def actuates(self) -> bool:
        return self is ControllerMode.ACTIVE


@dataclass(frozen=True)
class Candidate:
    """What the head knows about a node when arbitrating."""

    node_id: str
    capable: bool
    healthy: bool
    utilization_headroom: float
    hops_to_actuator: int = 1


class ArbitrationError(RuntimeError):
    """Raised when no viable replacement controller exists."""


class Arbitrator:
    """Deterministic replacement selection."""

    def select(self, candidates: list[Candidate],
               exclude: set[str] | None = None) -> str:
        """Pick the new primary.  Raises :class:`ArbitrationError` if none.

        Order: capable & healthy first, then max headroom, then min hops,
        then lexicographic node id (total order => every replica that runs
        the same inputs reaches the same verdict).
        """
        exclude = exclude or set()
        viable = [c for c in candidates
                  if c.capable and c.healthy and c.node_id not in exclude
                  and c.utilization_headroom > 0.0]
        if not viable:
            raise ArbitrationError(
                "no capable healthy candidate with headroom "
                f"(examined {len(candidates)}, excluded {sorted(exclude)})")
        best = min(viable, key=lambda c: (-c.utilization_headroom,
                                          c.hops_to_actuator, c.node_id))
        return best.node_id


@dataclass
class FailoverPolicy:
    """Tunables of the failover state machine (ablated in benchmarks).

    ``demote_mode``: where the faulty ex-primary goes immediately
    (INDICATOR per the case study).  ``dormant_delay_ticks``: how long
    after failover until the ex-primary is parked DORMANT (the paper's
    T3 - T2 = 200 s).
    """

    demote_mode: ControllerMode = ControllerMode.INDICATOR
    dormant_delay_ticks: int = 200 * 1_000_000


@dataclass
class ModeChange:
    """One arbitration outcome, as shipped to the affected nodes."""

    task: str
    new_primary: str
    demoted: str | None
    modes: dict[str, ControllerMode] = field(default_factory=dict)
    epoch: int = 0
