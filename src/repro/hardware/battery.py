"""Coulomb-counting battery with optional solar assist.

Components report ``draw(current, duration)``; the battery integrates charge
and exposes remaining capacity plus a lifetime projection from the observed
average current.  The FireFly can also run from a solar cell under ambient
light, which we model as a constant recharge current clamp.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.clock import SEC

_SECONDS_PER_HOUR = 3600.0
_HOURS_PER_YEAR = 24.0 * 365.25


@dataclass(frozen=True)
class BatterySpec:
    """Energy-store constants.  Default: two AA cells in series.

    ``capacity_coulombs`` = 2600 mAh * 3600 s/h (usable capacity).
    """

    capacity_coulombs: float = 2.6 * _SECONDS_PER_HOUR  # amp-seconds, 2600 mAh
    nominal_voltage: float = 3.0
    solar_current_a: float = 0.0  # recharge clamp while light is available


class BatteryDepleted(RuntimeError):
    """Raised when a draw is attempted on an empty battery."""


class Battery:
    """Integrates current draws over simulated time."""

    def __init__(self, engine, spec: BatterySpec | None = None,
                 raise_when_empty: bool = False) -> None:
        self.engine = engine
        self.spec = spec or BatterySpec()
        self.charge_drawn = 0.0  # coulombs consumed net of solar
        self.raise_when_empty = raise_when_empty
        self._start_time = engine.now

    def draw(self, current_a: float, duration_ticks: int) -> None:
        """Consume ``current_a`` amperes for ``duration_ticks`` of sim time."""
        if current_a < 0:
            raise ValueError(f"negative current {current_a}")
        if duration_ticks < 0:
            raise ValueError(f"negative duration {duration_ticks}")
        effective = max(0.0, current_a - self.spec.solar_current_a)
        self.charge_drawn += effective * (duration_ticks / SEC)
        if self.raise_when_empty and self.depleted:
            raise BatteryDepleted(
                f"battery depleted after {self.charge_drawn:.1f} C")

    def drain_fraction(self, fraction: float) -> None:
        """Instantly consume ``fraction`` of the *rated* capacity.

        Fault-injection hook (sudden load, cell damage, cold snap): the
        charge disappears without an associated current-over-time draw, so
        lifetime projections keep reflecting the observed duty cycle.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0,1], got {fraction}")
        self.charge_drawn = max(self.charge_drawn, min(
            self.spec.capacity_coulombs,
            self.charge_drawn + fraction * self.spec.capacity_coulombs))
        if self.raise_when_empty and self.depleted:
            raise BatteryDepleted(
                f"battery depleted after {self.charge_drawn:.1f} C")

    @property
    def remaining_coulombs(self) -> float:
        return max(0.0, self.spec.capacity_coulombs - self.charge_drawn)

    @property
    def remaining_fraction(self) -> float:
        if self.spec.capacity_coulombs == 0:
            return 0.0
        return self.remaining_coulombs / self.spec.capacity_coulombs

    @property
    def depleted(self) -> bool:
        return self.charge_drawn >= self.spec.capacity_coulombs

    def average_current_a(self) -> float:
        """Mean current since construction (0 if no time has elapsed)."""
        elapsed_ticks = self.engine.now - self._start_time
        if elapsed_ticks <= 0:
            return 0.0
        return self.charge_drawn / (elapsed_ticks / SEC)

    def projected_lifetime_years(self) -> float:
        """Extrapolate full-capacity lifetime from the observed mean current.

        This is the metric behind the paper's "1.8 years at 5 % duty cycle"
        claim: capacity / average-current, converted to years.
        Returns ``inf`` when no current has been drawn.
        """
        avg = self.average_current_a()
        if avg <= 0.0:
            return float("inf")
        hours = (self.spec.capacity_coulombs / avg) / _SECONDS_PER_HOUR
        return hours / _HOURS_PER_YEAR

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Battery({self.remaining_fraction * 100:.1f}% of "
                f"{self.spec.capacity_coulombs:.0f} C)")
