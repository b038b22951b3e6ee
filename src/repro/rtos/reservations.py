"""Resource reservations with periodic replenishment.

nano-RK's defining feature: a task declares ``budget per period`` for CPU
time, network packets and energy, and the kernel enforces the budgets --
overruns are throttled (CPU), refused (network) or flagged (energy), never
silently allowed.  The EVM re-parameterizes reservations at runtime when it
re-balances a Virtual Component.
"""

from __future__ import annotations


class ReservationError(ValueError):
    """Raised for malformed reservation parameters."""


class _PeriodicBudget:
    """Shared mechanics: consume against a budget that refills each period."""

    def __init__(self, budget: float, period_ticks: int) -> None:
        if budget <= 0:
            raise ReservationError(f"budget must be positive, got {budget}")
        if period_ticks <= 0:
            raise ReservationError(
                f"period must be positive, got {period_ticks}")
        self.budget = budget
        self.period_ticks = period_ticks
        self.used = 0.0
        self.replenish_count = 0
        self.overrun_attempts = 0

    def available(self) -> float:
        return max(0.0, self.budget - self.used)

    def consume(self, amount: float) -> bool:
        """Try to consume; False (and counted) if it would overrun."""
        if amount < 0:
            raise ReservationError(f"negative consumption {amount}")
        if self.used + amount > self.budget + 1e-12:
            self.overrun_attempts += 1
            return False
        self.used += amount
        return True

    def consume_upto(self, amount: float) -> float:
        """Consume as much of ``amount`` as the budget allows; return it."""
        granted = min(amount, self.available())
        self.used += granted
        return granted

    def replenish(self) -> None:
        self.used = 0.0
        self.replenish_count += 1

    @property
    def exhausted(self) -> bool:
        return self.available() <= 0.0


class CpuReservation(_PeriodicBudget):
    """CPU ticks per replenishment period.

    The scheduler charges executed slices against this; a job whose
    reservation is exhausted is THROTTLED until the next replenishment,
    preserving lower-priority tasks' guarantees (temporal isolation).
    """

    def __init__(self, budget_ticks: int, period_ticks: int) -> None:
        super().__init__(float(budget_ticks), period_ticks)

    @property
    def utilization(self) -> float:
        return self.budget / self.period_ticks


class NetworkReservation(_PeriodicBudget):
    """Packets per replenishment period; sends beyond budget are refused."""

    def __init__(self, packets: int, period_ticks: int) -> None:
        super().__init__(float(packets), period_ticks)

    def try_send(self) -> bool:
        return self.consume(1.0)


class EnergyReservation(_PeriodicBudget):
    """Joules per replenishment period (virtual energy reservations).

    nano-RK enforces energy budgets by gating the resource accesses that
    spend energy; here consumers pre-charge joules and are refused on
    exhaustion.
    """

    def __init__(self, joules: float, period_ticks: int) -> None:
        super().__init__(joules, period_ticks)

    def try_spend(self, joules: float) -> bool:
        return self.consume(joules)
