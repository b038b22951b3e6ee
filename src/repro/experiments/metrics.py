"""Series, latency and energy utilities shared by benches and tests."""

from __future__ import annotations

MCU_SLEEP_CURRENT_A = 10e-6
"""Deep-sleep MCU floor added when projecting member-node lifetimes."""


def project_node_energy(node, now_ticks: int,
                        mcu_sleep_current_a: float = MCU_SLEEP_CURRENT_A,
                        ) -> tuple[float, float, float]:
    """Finalize one node's energy accounting at the end of a trial.

    Applies the deep-sleep MCU draw up to ``now_ticks``, settles the
    radio's state accounting, and returns ``(avg_current_ma,
    lifetime_years, radio_duty_pct)`` -- the projection every MAC
    lifetime study (claim C2) reports.  One implementation so the
    six-node comparison and the wide-grid studies can never diverge.
    """
    node.battery.draw(mcu_sleep_current_a, now_ticks)
    node.radio._settle()
    return (node.battery.average_current_a() * 1e3,
            node.battery.projected_lifetime_years(),
            node.radio.duty_cycle() * 100.0)


def mean(values: list[float]) -> float:
    if not values:
        return 0.0
    return sum(values) / len(values)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; p in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(p / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def settling_time_sec(times_sec: list[float], series: list[float],
                      target: float, tolerance: float,
                      after_sec: float = 0.0) -> float | None:
    """First time after ``after_sec`` the series enters and stays within
    ``target +/- tolerance``.  None if it never settles."""
    candidate = None
    for t, value in zip(times_sec, series):
        if t < after_sec:
            continue
        if abs(value - target) <= tolerance:
            if candidate is None:
                candidate = t
        else:
            candidate = None
    return candidate


def first_crossing_sec(times_sec: list[float], series: list[float],
                       threshold: float, direction: str = "below",
                       after_sec: float = 0.0) -> float | None:
    """First time the series crosses ``threshold`` in ``direction``."""
    for t, value in zip(times_sec, series):
        if t < after_sec:
            continue
        if direction == "below" and value < threshold:
            return t
        if direction == "above" and value > threshold:
            return t
    return None


def max_in_window(times_sec: list[float], series: list[float],
                  start_sec: float, end_sec: float) -> float:
    values = [v for t, v in zip(times_sec, series)
              if start_sec <= t <= end_sec]
    return max(values) if values else float("-inf")


def min_in_window(times_sec: list[float], series: list[float],
                  start_sec: float, end_sec: float) -> float:
    values = [v for t, v in zip(times_sec, series)
              if start_sec <= t <= end_sec]
    return min(values) if values else float("inf")
