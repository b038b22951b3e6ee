"""Autoscaling: pure policy table, hysteresis in virtual time, and the
drain-then-exit retirement contract end to end.

The policy layer is a pure snapshot -> delta function, so its whole
decision surface is a table test.  The :class:`Autoscaler` adds only
cooldown state, driven here with an injected clock -- no sleeps.  The
e2e tests then pin the part no unit can: a :class:`LocalCluster` that
grows under a queue-depth spike, shrinks on drain, never loses a lease
to a *cooperative* retirement, and still requeues when a retiring
worker is SIGKILLed mid-drain.
"""

import threading
import time

import pytest

from repro.dist import LocalCluster
from repro.dist.autoscale import (
    Autoscaler,
    AutoscalePolicy,
    fleet_size,
    parse_autoscale,
)
from repro.dist.cluster import sleepy_echo
from repro.dist.coordinator import Coordinator


def _status(pending=0, workers=(), p95=0.0):
    return {"pending": pending, "lease_wait_p95_sec": p95,
            "workers": [{"slots": s, "inflight": i} for s, i in workers]}


def _wait_until(predicate, timeout=15.0, period=0.02, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise TimeoutError(f"timed out waiting for {what}")
        time.sleep(period)


# ----------------------------------------------------------------------
# The pure policy: a decision table
# ----------------------------------------------------------------------
class TestPolicyDecisions:
    policy = AutoscalePolicy(min_workers=1, max_workers=4,
                             backlog_per_worker=2.0, wait_p95_sec=1.0)

    def test_bootstraps_to_min(self):
        assert self.policy.decide(_status()) == 1
        wide = AutoscalePolicy(min_workers=3, max_workers=8)
        assert wide.decide(_status(workers=[(1, 0)])) == 2

    def test_holds_at_min_when_idle(self):
        assert self.policy.decide(_status(workers=[(1, 0)])) == 0

    def test_backlog_sizes_the_fleet(self):
        # 6 pending / 2-per-worker => want 3, have 1 => +2.
        assert self.policy.decide(
            _status(pending=6, workers=[(1, 1)])) == 2

    def test_growth_clamped_at_max(self):
        assert self.policy.decide(
            _status(pending=100, workers=[(1, 1)])) == 3
        assert self.policy.decide(
            _status(pending=100,
                    workers=[(1, 1)] * 4)) == 0

    def test_wait_tail_breach_adds_one_even_when_queue_shallow(self):
        # want-by-backlog (1) < fleet (2), but the p95 breach asks for
        # one more anyway.
        assert self.policy.decide(
            _status(pending=1, workers=[(1, 1), (1, 1)], p95=2.5)) == 1

    def test_wait_tail_within_budget_does_not_grow(self):
        assert self.policy.decide(
            _status(pending=1, workers=[(1, 1), (1, 1)], p95=0.5)) == 0

    def test_drain_retires_idle_down_to_min(self):
        assert self.policy.decide(
            _status(workers=[(1, 0), (1, 0), (1, 0)])) == -2

    def test_busy_workers_never_retired(self):
        assert self.policy.decide(
            _status(workers=[(1, 1), (1, 1), (1, 0)])) == -1
        assert self.policy.decide(
            _status(workers=[(1, 1), (1, 1), (1, 1)])) == 0

    def test_retiring_workers_excluded_from_fleet(self):
        # A retiring worker reports slots=0: it neither blocks
        # scale-up toward min nor counts as retirable capacity.
        status = _status(workers=[(0, 1), (1, 0)])
        assert fleet_size(status) == 1
        assert self.policy.decide(status) == 0
        assert self.policy.decide(_status(workers=[(0, 1)])) == 1

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            AutoscalePolicy(min_workers=3, max_workers=1)
        with pytest.raises(ValueError):
            AutoscalePolicy(min_workers=-1, max_workers=2)
        with pytest.raises(ValueError):
            AutoscalePolicy(backlog_per_worker=0.0)


# ----------------------------------------------------------------------
# Hysteresis, in virtual time
# ----------------------------------------------------------------------
class _FakeDriver:
    def __init__(self):
        self.calls = []

    def scale_up(self, n):
        self.calls.append(("up", n))

    def scale_down(self, n):
        self.calls.append(("down", n))


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def _engine(min_workers=1, max_workers=4, up=1.0, down=5.0):
    driver, clock = _FakeDriver(), _FakeClock()
    policy = AutoscalePolicy(min_workers=min_workers,
                             max_workers=max_workers,
                             backlog_per_worker=2.0,
                             up_cooldown_sec=up, down_cooldown_sec=down)
    return Autoscaler(policy, driver, clock=clock), driver, clock


def test_up_cooldown_suppresses_rapid_growth():
    scaler, driver, clock = _engine()
    spike = _status(pending=8, workers=[(1, 1)])
    assert scaler.tick(spike) == 3
    # Same spike a blink later: held, not reapplied.
    clock.now += 0.2
    assert scaler.tick(spike) == 0
    clock.now += 1.0
    assert scaler.tick(spike) == 3
    assert driver.calls == [("up", 3), ("up", 3)]
    assert scaler.scaled_up == 6 and scaler.scaled_down == 0


def test_scale_down_blocked_while_recent_up_warms():
    """A spike's trailing edge cannot immediately undo its leading
    edge: down waits out ``down_cooldown`` from the *last action*,
    up or down."""
    scaler, driver, clock = _engine(up=0.5, down=5.0)
    assert scaler.tick(_status(pending=8, workers=[(1, 1)])) == 3
    drained = _status(workers=[(1, 0)] * 4)
    clock.now += 1.0  # past up_cooldown, well inside down_cooldown
    assert scaler.tick(drained) == 0
    clock.now += 5.0
    assert scaler.tick(drained) == -3
    clock.now += 1.0  # down_cooldown applies between downs too
    assert scaler.tick(_status(workers=[(1, 0), (1, 0)])) == 0
    assert driver.calls == [("up", 3), ("down", 3)]
    assert scaler.scaled_down == 3


def test_zero_delta_never_touches_cooldowns():
    scaler, driver, clock = _engine()
    steady = _status(workers=[(1, 0)])
    for _ in range(5):
        assert scaler.tick(steady) == 0
        clock.now += 0.01
    assert driver.calls == []
    assert scaler.ticks == 5


def test_parse_autoscale():
    assert parse_autoscale("2:6") == (2, 6)
    assert parse_autoscale("0:1") == (0, 1)
    for bad in ("6:2", "-1:4", "3", "a:b", ":", "2:"):
        with pytest.raises(ValueError):
            parse_autoscale(bad)


class _FailingDriver:
    def scale_up(self, n):
        raise RuntimeError("spawn failed")

    def scale_down(self, n):
        raise RuntimeError("retire failed")


def test_failing_tick_is_counted_and_the_timer_keeps_ticking():
    """A driver action that raises is counted in the broker's stats;
    the evaluation timer survives it and ticks again."""
    policy = AutoscalePolicy(min_workers=1, max_workers=2,
                             up_cooldown_sec=0.0)
    with Coordinator() as coordinator:
        scaler = coordinator.set_autoscaler(policy, _FailingDriver(),
                                            period=0.05)
        _wait_until(lambda: coordinator.stats.autoscale_errors >= 3,
                    what="counted autoscale errors")
        ticks = scaler.ticks
        _wait_until(lambda: scaler.ticks > ticks, what="a later tick")
        stats = coordinator.status()["stats"]
        assert isinstance(stats["autoscale_errors"], int)
        assert stats["autoscale_errors"] >= 3


# ----------------------------------------------------------------------
# End to end: an elastic LocalCluster
# ----------------------------------------------------------------------
def _fleet(cluster):
    return fleet_size(cluster.coordinator.status())


def test_cluster_grows_on_spike_and_shrinks_on_drain():
    """Queue-depth spike spawns workers up to max; the drained fleet
    retires back to min; cooperative retirement loses no lease."""
    policy = AutoscalePolicy(min_workers=1, max_workers=3,
                             backlog_per_worker=2.0,
                             up_cooldown_sec=0.05,
                             down_cooldown_sec=0.15)
    with LocalCluster(n_workers=0, slots=1) as cluster:
        cluster.coordinator.set_autoscaler(policy, cluster, period=0.05)
        # Bootstrap: 0 workers is below min, the policy spawns one.
        _wait_until(lambda: _fleet(cluster) >= 1, what="bootstrap worker")
        runner = cluster.runner()
        jobs = [{"sleep_sec": 0.25, "value": i} for i in range(12)]
        grown = []
        collector = threading.Thread(
            target=lambda: grown.extend(
                runner.map_jobs(sleepy_echo, jobs)))
        collector.start()
        try:
            _wait_until(lambda: _fleet(cluster) >= 3, timeout=20.0,
                        what="fleet growth under backlog")
        finally:
            collector.join(timeout=30.0)
        assert not collector.is_alive()
        assert grown == [job["value"] for job in jobs]
        _wait_until(lambda: _fleet(cluster) == 1, timeout=20.0,
                    what="fleet shrink after drain")
        stats = cluster.coordinator.stats
        assert stats.jobs_requeued == 0
        assert stats.workers_retired >= 2
        assert stats.jobs_completed == 12


def test_retiring_worker_finishes_in_flight_lease():
    """Retirement is drain-then-exit: the in-flight lease completes on
    the retiring worker (no requeue), the worker then disconnects."""
    with LocalCluster(n_workers=1, slots=1) as cluster:
        cluster.wait_for_workers()
        runner = cluster.runner()
        done = []
        collector = threading.Thread(
            target=lambda: done.extend(runner.map_jobs(
                sleepy_echo, [{"sleep_sec": 0.8, "value": 42}])))
        collector.start()
        _wait_until(
            lambda: cluster.coordinator.status()["leased"] == 1,
            what="lease in flight")
        assert cluster.retire_workers(1) == 1
        status = cluster.coordinator.status()
        assert any(w["retiring"] for w in status["workers"])
        assert status["fleet_size"] == 0
        collector.join(timeout=30.0)
        assert done == [42]
        stats = cluster.coordinator.stats
        assert stats.jobs_requeued == 0
        assert stats.workers_retired == 1
        # Drained worker hangs up on its own; nothing left connected.
        _wait_until(
            lambda: not cluster.coordinator.status()["workers"],
            what="retired worker disconnect")


def test_sigkill_during_retire_still_requeues():
    """Cooperative drain is not a liveness assumption: a retiring
    subprocess worker killed mid-drain loses its lease to the requeue
    path like any other crash, and a replacement finishes the job."""
    with LocalCluster(n_workers=1, mode="subprocess", slots=1,
                      worker_timeout=4.0,
                      heartbeat_period=0.2) as cluster:
        cluster.wait_for_workers()
        runner = cluster.runner()
        done = []
        collector = threading.Thread(
            target=lambda: done.extend(runner.map_jobs(
                sleepy_echo, [{"sleep_sec": 3.0, "value": 7}])))
        collector.start()
        _wait_until(
            lambda: cluster.coordinator.status()["leased"] == 1,
            what="lease in flight")
        assert cluster.retire_workers(1) == 1
        cluster.kill_worker(0)  # SIGKILL mid-drain
        cluster.spawn_workers(1)
        collector.join(timeout=60.0)
        assert not collector.is_alive()
        assert done == [7]
        assert cluster.coordinator.stats.jobs_requeued >= 1
