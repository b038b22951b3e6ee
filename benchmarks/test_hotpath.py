"""Hot-path microbenchmark smoke: the three inner loops stay functional.

Unlike the figure-reproduction benches, these are *micro*benchmarks over
``Engine`` dispatch, the threaded-code ``Interpreter`` and the indexed
``Medium``.  They assert only functional invariants (everything scheduled
was dispatched, the VM converged, frames resolved) -- never wall-clock
thresholds, so slow CI runners cannot flake them.  The recorded rates
land in the pytest-benchmark report; cross-PR trajectories are tracked
separately in ``BENCH_*.json`` via ``benchmarks/hotpath.py``.
"""

import random

# Sibling module; pytest puts this directory on sys.path (no __init__.py).
from hotpath import _COUNTDOWN, _build_mesh

from repro.evm.bytecode import Assembler
from repro.evm.interpreter import Interpreter
from repro.net.packet import BROADCAST, Packet
from repro.sim.engine import Engine


def test_engine_event_throughput(benchmark):
    n_events = 20_000

    def drive() -> int:
        engine = Engine()
        remaining = [n_events]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                engine.post(7, tick)

        for i in range(32):
            engine.post(i, tick)
        return engine.run()

    dispatched = benchmark.pedantic(drive, rounds=3, iterations=1)
    # The 32 seed events still drain after the countdown hits zero.
    assert dispatched >= n_events


def test_engine_cancellation_churn(benchmark):
    """The cancellable path: half the handles are cancelled before firing;
    the live-event counter must land exactly on zero."""
    n_events = 10_000

    def drive() -> int:
        engine = Engine()
        fired = [0]

        def tick() -> None:
            fired[0] += 1

        handles = [engine.schedule(10 + (i % 97), tick)
                   for i in range(n_events)]
        for handle in handles[::2]:
            handle.cancel()
        assert engine.pending_events == n_events // 2
        engine.run()
        assert engine.pending_events == 0
        return fired[0]

    fired = benchmark.pedantic(drive, rounds=3, iterations=1)
    assert fired == n_events // 2


def test_process_resume_throughput(benchmark):
    """The allocation-free resume path drives a Delay ping-pong loop to
    completion; every lap must land on the engine's clock grid."""
    from repro.sim.process import Delay, Process

    n_resumes = 20_000

    def drive() -> int:
        engine = Engine()
        wait = Delay(7)

        def loop():
            for _ in range(n_resumes):
                yield wait

        proc = Process(engine, loop(), name="smoke")
        engine.run()
        assert not proc.alive
        return engine.now

    final_time = benchmark.pedantic(drive, rounds=3, iterations=1)
    assert final_time == n_resumes * 7


def test_campaign_runner_pool_reuse(benchmark):
    """Two runs through one CampaignRunner: the persistent pool must be
    reused and both runs must produce identical records."""
    import json

    from repro.scenarios import CampaignRunner, Scenario
    from repro.scenarios.stock import fast_hil

    grid = [Scenario(f"smoke-{i}", hil=fast_hil(), seed=i, duration_sec=3.0)
            for i in range(2)]

    def drive():
        with CampaignRunner(max_workers=2) as runner:
            first = runner.run(grid)
            pool = runner._pool
            second = runner.run(grid)
            assert runner._pool is pool  # persistent across run() calls
        assert runner._pool is None  # context exit reaped it
        return first, second

    first, second = benchmark.pedantic(drive, rounds=1, iterations=1)
    assert len(first.records) == len(grid)
    assert (json.dumps(first.records, sort_keys=True)
            == json.dumps(second.records, sort_keys=True))


def test_vm_dispatch_throughput(benchmark):
    iterations = 5_000
    program = Assembler().assemble(_COUNTDOWN, name="countdown")
    interp = Interpreter(max_steps=10_000_000)

    def drive() -> int:
        memory = [float(iterations)] + [0.0] * 15
        state = interp.execute(program, memory)
        assert state.halted and memory[0] == 0.0
        return state.steps

    steps = benchmark.pedantic(drive, rounds=3, iterations=1)
    # One step per executed instruction: seven per countdown iteration.
    assert steps >= iterations * 7


def test_medium_frame_resolution(benchmark):
    n_frames = 500

    def drive():
        engine = Engine()
        medium, nodes, node_ids = _build_mesh(engine, 8)
        for node_id in node_ids:
            medium.port(node_id).listen()
        sent = [0]

        def send(idx: int) -> None:
            if sent[0] >= n_frames:
                return
            sent[0] += 1
            node_id = node_ids[idx % len(node_ids)]
            if nodes[node_id].radio.state.name != "TX":
                medium.port(node_id).transmit(
                    Packet(src=node_id, dst=BROADCAST, kind="bench",
                           size_bytes=32, seq=sent[0]))
                medium.port(node_id).listen()
            engine.schedule(650 + 13 * (idx % 5), send, idx + 1)

        engine.schedule(0, send, 0)
        engine.run()
        return medium.stats

    stats = benchmark.pedantic(drive, rounds=3, iterations=1)
    assert stats.frames_sent == n_frames
    # Every completion resolved an outcome per audible receiver.
    resolved = (stats.frames_delivered + stats.collisions
                + stats.channel_losses + stats.missed_radio_off)
    assert resolved == n_frames * 7


def test_carrier_sense_is_o1(benchmark):
    """channel_busy cost must not scale with the in-flight population."""

    def probe_cost(in_flight: int, probes: int = 2_000) -> None:
        engine = Engine()
        medium, nodes, node_ids = _build_mesh(engine, 12)
        rng = random.Random(3)
        for i in range(in_flight):
            node_id = node_ids[rng.randrange(len(node_ids))]
            if nodes[node_id].radio.state.name != "TX":
                medium.port(node_id).transmit(
                    Packet(src=node_id, dst=BROADCAST, kind="bench",
                           size_bytes=100, seq=i))
        port = medium.port(node_ids[0])
        for _ in range(probes):
            port.channel_busy()

    benchmark.pedantic(probe_cost, args=(64,), rounds=3, iterations=1)


def test_plant_step_throughput(benchmark):
    """The compiled plant step sweep stays functional: levels move under
    local control and every unit advances every step."""
    from repro.plant.gas_plant import NaturalGasPlant

    plant = NaturalGasPlant()
    plant.enable_local_control()

    def drive() -> float:
        for _ in range(200):
            plant.step(0.5)
        return plant.flowsheet.read("lts_level_pct")

    level = benchmark.pedantic(drive, rounds=1, iterations=1)
    assert 0.0 < level < 100.0
    assert plant.flowsheet.steps == 200


def test_trace_record_and_views(benchmark):
    """The lazily-materialized trace keeps its view contract under the
    bench workload shape."""
    from repro.sim.trace import Trace

    def drive():
        trace = Trace()
        for i in range(5_000):
            trace.record(i * 7, "mac.tx", "n1", seq=i)
            trace.record(i * 7 + 3, "medium.rx", "n2", src="n1")
            if i % 100 == 0:
                trace.record(i * 7 + 5, "evm.heartbeat", "ctrl_a", seq=i)
        return trace

    trace = benchmark.pedantic(drive, rounds=1, iterations=1)
    assert trace.count("mac.tx") == 5_000
    assert len(trace.events("evm")) == 50
    assert trace.last("medium.rx").data["src"] == "n1"


def test_widegrid_trial_smoke(benchmark):
    """A reduced wide-grid failover trial end to end (the BENCH_4 meter
    runs 100 nodes; 48 keeps the smoke cheap)."""
    from repro.experiments.widegrid import WideGridConfig, run_widegrid_trial

    config = WideGridConfig(n_nodes=48, area_m=110.0, radio_range_m=28.0,
                            seed=1, duration_sec=15.0,
                            crash_primary_at_sec=5.0)

    def drive():
        return run_widegrid_trial(config)

    result = benchmark.pedantic(drive, rounds=1, iterations=1)
    assert result.failovers_executed >= 1
    assert result.active_controller_final == result.roles["ctrl_b"]
    assert result.reports_delivered > 0


def test_distributed_campaign_smoke(benchmark):
    """The distributed runner end to end on a thread-mode LocalCluster:
    jobs over real localhost sockets, leases, results streamed back --
    functional smoke for the campaign_dist_runs_per_sec meter (the
    BENCH_5 meter uses subprocess workers with process pools)."""
    from repro.dist import LocalCluster
    from repro.scenarios import Scenario
    from repro.scenarios.stock import fast_hil

    grid = [Scenario(f"bench-dist-{i}", hil=fast_hil(), seed=i,
                     duration_sec=3.0) for i in range(3)]

    def drive():
        with LocalCluster(n_workers=2, slots=2) as cluster:
            cluster.wait_for_workers()
            return cluster.runner().run(grid)

    result = benchmark.pedantic(drive, rounds=1, iterations=1)
    assert len(result.records) == 3 and not result.failed
    assert result.summary["total_runs"] == 3


def test_dist_frame_relay_smoke(benchmark):
    """The dist_frames_per_sec meter's shape at reduced size: zero-work
    echo jobs through one thread-mode worker over real sockets, results
    back in job order (batched grant/result frames under the hood)."""
    from hotpath import _frame_echo

    from repro.dist import LocalCluster

    jobs = [{"value": i} for i in range(64)]

    def drive():
        with LocalCluster(n_workers=1, mode="thread", processes=0,
                          slots=16) as cluster:
            cluster.wait_for_workers()
            return cluster.runner().map_jobs(_frame_echo, jobs)

    values = benchmark.pedantic(drive, rounds=1, iterations=1)
    assert values == list(range(64))
