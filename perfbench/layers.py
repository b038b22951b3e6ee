"""What the traced run wraps, and how spans become per-layer metrics.

The layers are the ``src/repro/`` packages.  Each wrapped call gets a
span named ``<package>.<module>.<call>``; the per-layer metrics below
are sums of span self time (span duration minus the part its wrapped
children cover) unless the description says otherwise.  ``rtos``,
``timesync`` and the RT-Link slot loop have no span of their own yet,
so their time stays inside ``sim.engine.self_s``.
"""

from __future__ import annotations

import statistics
from typing import Any

from spans import HOT, MARK, THREADED, Patch, Track, Tracer


def _count_result(counter: str, attr: str | None = None):
    def after(tracer: Tracer, result: Any) -> None:
        tracer.count(counter, getattr(result, attr) if attr else result)
    return after


SPAN_PATCHES = [
    Patch("repro.experiments.widegrid", "random_geometric_connected",
          "net.topology.random_geometric_connected"),
    Patch("repro.experiments.hil", "full_mesh", "net.topology.full_mesh"),
    Patch("repro.experiments.widegrid", "build_tree_tables",
          "net.routing.build_tree_tables"),
    Patch("repro.net.mac.rtlink", "RtLinkSchedule.round_robin",
          "net.mac.round_robin"),
    Patch("repro.experiments.widegrid", "WideGridRig.__init__",
          "experiments.widegrid.build"),
    Patch("repro.experiments.widegrid", "run_widegrid_spec",
          "experiments.widegrid.run_spec"),
    Patch("repro.experiments.hil", "HilRig.__init__", "experiments.hil.build"),
    Patch("repro.plant.gas_plant", "NaturalGasPlant.settle", "plant.settle"),
    Patch("repro.sim.engine", "Engine.run_until", "sim.engine.run_until",
          after=_count_result("sim.engine.events")),
    Patch("repro.scenarios.runner", "run_scenario", "scenarios.run_scenario"),
    Patch("repro.scenarios.store", "ResultsStore.stage_run",
          "scenarios.store.stage_run"),
    Patch("repro.scenarios.store", "ResultsStore.commit_staged",
          "scenarios.store.commit_staged"),
    Patch("repro.scenarios.store", "ResultsStore.save_summary",
          "scenarios.store.save_summary"),
    Patch("repro.scenarios.store", "ResultsStore.save_metrics_jsonl",
          "scenarios.store.save_metrics_jsonl"),
    Patch("repro.scenarios.runner", "summarize", "scenarios.summarize"),
    Patch("repro.dist.runner", "summarize", "scenarios.summarize"),
    Patch("repro.warehouse", "ingest_store", "warehouse.ingest_store",
          after=_count_result("warehouse.rows", "inserted")),
]

HOT_PATCHES = [
    Patch("repro.hardware.radio", "Radio.set_state",
          "hardware.radio.set_state", HOT,
          count_if=lambda args: args[1] is not args[0].state),
    Patch("repro.net.medium", "MediumPort.transmit", "net.medium.transmit",
          HOT),
    Patch("repro.net.routing", "RoutedMacAdapter.send", "net.routing.send",
          HOT),
    Patch("repro.net.mac.rtlink", "RtLinkMac.send", "net.mac.rtlink.send",
          HOT),
    Patch("repro.evm.interpreter", "Interpreter.execute", "evm.execute", HOT,
          after=_count_result("evm.instructions", "steps")),
    Patch("repro.evm.runtime", "EvmRuntime.deliver", "evm.runtime.deliver",
          HOT),
    Patch("repro.plant.gas_plant", "NaturalGasPlant.step", "plant.step", HOT),
]

TRACKS = [
    Track("repro.net.medium", "Medium", keep=lambda medium: medium.stats,
          read=lambda stats: {
              "net.medium.frames_sent": stats.frames_sent,
              "net.medium.frames_delivered": stats.frames_delivered,
              "net.medium.collisions": stats.collisions}),
    Track("repro.net.routing", "RoutedMacAdapter",
          read=lambda adapter: {
              "net.routing.floods_suppressed": adapter.floods_suppressed}),
]

WIRE_PATCHES = [
    Patch("repro.dist.runner", "send_message", "dist.protocol.send_message",
          THREADED),
    # recv_message is timed from when its frame's length prefix arrived
    # (the prefix check returns), so waiting for results is left out.
    Patch("repro.dist.protocol", "_check_prefix", "dist.protocol.prefix",
          MARK),
    Patch("repro.dist.runner", "recv_message", "dist.protocol.recv_message",
          THREADED, since_mark=True),
]

# (name, unit, what it is) -- the --trace 1 metrics, in print order.
PER_LAYER: list[tuple[str, str, str]] = [
    ("net.topology.build_s", "s",
     "random_geometric_connected + full_mesh"),
    ("net.routing.tables_s", "s", "build_tree_tables"),
    ("net.mac.schedule_s", "s", "RtLinkSchedule.round_robin"),
    ("experiments.widegrid.build_self_s", "s",
     "WideGridRig.__init__ minus its wrapped children"),
    ("sim.engine.events", "count", "events Engine.run_until dispatched"),
    ("sim.engine.self_s", "s", "Engine.run_until minus wrapped children"),
    ("sim.engine.ns_per_event", "ns", "sim.engine.self_s per event"),
    ("hardware.radio.set_state_s", "s", "Radio.set_state"),
    ("hardware.radio.transitions", "count",
     "set_state calls that changed state"),
    ("net.medium.transmit_s", "s", "MediumPort.transmit"),
    ("net.medium.frames_sent", "count", "MediumStats.frames_sent"),
    ("net.medium.frames_delivered", "count", "MediumStats.frames_delivered"),
    ("net.medium.collisions", "count", "MediumStats.collisions"),
    ("net.routing.send_s", "s", "RoutedMacAdapter.send"),
    ("net.routing.floods_suppressed", "count",
     "RoutedMacAdapter.floods_suppressed"),
    ("net.mac.rtlink.send_s", "s", "RtLinkMac.send"),
    ("plant.step_s", "s", "NaturalGasPlant.step, settle steps included"),
    ("plant.steps", "count", "NaturalGasPlant.step calls"),
    ("plant.ns_per_step", "ns", "plant.step_s per step"),
    ("plant.settle_s", "s", "NaturalGasPlant.settle, inclusive"),
    ("experiments.hil.build_s", "s",
     "HilRig.__init__ minus settle and topology"),
    ("evm.execute_s", "s", "Interpreter.execute"),
    ("evm.executes", "count", "Interpreter.execute calls"),
    ("evm.instructions", "count", "VmState.steps over execute calls"),
    ("evm.runtime.deliver_s", "s", "EvmRuntime.deliver"),
    ("scenarios.run_s", "s", "p50 of run_scenario, light pass"),
    ("scenarios.pool.utilization", "ratio",
     "sum of serial job seconds / (workers x wall_s)"),
    ("scenarios.store.stage_s", "s", "ResultsStore.stage_run"),
    ("scenarios.store.commit_s", "s",
     "commit_staged + save_summary + save_metrics_jsonl"),
    ("scenarios.summarize_s", "s", "summarize"),
    ("warehouse.ingest_s", "s", "ingest_store"),
    ("warehouse.rows", "count", "rows ingest_store inserted"),
    ("dist.lease_wait_p50_s", "s", "coordinator status"),
    ("dist.lease_wait_p95_s", "s", "coordinator status"),
    ("dist.jobs_submitted", "count", "CoordinatorStats delta per unit"),
    ("dist.jobs_requeued", "count", "CoordinatorStats delta per unit"),
    ("dist.results_ignored", "count", "CoordinatorStats delta per unit"),
    ("dist.protocol.send_s", "s", "client send_message"),
    ("dist.protocol.recv_s", "s",
     "client recv_message after the frame's prefix arrived"),
    ("dist.overhead_ratio", "ratio",
     "workers x wall_s / sum of serial job seconds"),
    ("trace.overhead_s", "s", "traced pass wall minus untraced wall"),
    ("trace.wrapped_calls", "count", "calls through the wrappers"),
]

COUNTS = ["sim.engine.events", "hardware.radio.transitions",
          "net.medium.frames_sent", "net.medium.frames_delivered",
          "net.medium.collisions", "net.routing.floods_suppressed",
          "plant.steps", "evm.executes", "evm.instructions",
          "warehouse.rows"]
"""Deterministic work counts: equal on every full pass at one seed."""


def full_tracer(run_id: str) -> Tracer:
    return Tracer(run_id, SPAN_PATCHES + HOT_PATCHES, TRACKS)


def light_tracer(run_id: str) -> Tracer:
    return Tracer(run_id, SPAN_PATCHES)


def wire_tracer(run_id: str) -> Tracer:
    return Tracer(run_id, WIRE_PATCHES)


def full_pass_metrics(tr: Tracer) -> dict[str, float]:
    """Layer self times and work counts of one fully traced pass."""
    c = tr.counters
    events = c.get("sim.engine.events", 0)
    engine_self = tr.self_s("sim.engine.run_until")
    steps = tr.n_calls("plant.step")
    step_s = tr.self_s("plant.step")
    return {
        "net.topology.build_s": tr.self_s(
            "net.topology.random_geometric_connected",
            "net.topology.full_mesh"),
        "net.routing.tables_s": tr.self_s("net.routing.build_tree_tables"),
        "net.mac.schedule_s": tr.self_s("net.mac.round_robin"),
        "experiments.widegrid.build_self_s": tr.self_s(
            "experiments.widegrid.build"),
        "sim.engine.events": events,
        "sim.engine.self_s": engine_self,
        "sim.engine.ns_per_event": (engine_self / events * 1e9
                                    if events else 0.0),
        "hardware.radio.set_state_s": tr.self_s("hardware.radio.set_state"),
        "hardware.radio.transitions": c.get(
            "hardware.radio.set_state.counted", 0),
        "net.medium.transmit_s": tr.self_s("net.medium.transmit"),
        "net.medium.frames_sent": c.get("net.medium.frames_sent", 0),
        "net.medium.frames_delivered": c.get("net.medium.frames_delivered",
                                             0),
        "net.medium.collisions": c.get("net.medium.collisions", 0),
        "net.routing.send_s": tr.self_s("net.routing.send"),
        "net.routing.floods_suppressed": c.get(
            "net.routing.floods_suppressed", 0),
        "net.mac.rtlink.send_s": tr.self_s("net.mac.rtlink.send"),
        "plant.step_s": step_s,
        "plant.steps": steps,
        "plant.ns_per_step": step_s / steps * 1e9 if steps else 0.0,
        "plant.settle_s": tr.total_s("plant.settle"),
        "experiments.hil.build_s": tr.self_s("experiments.hil.build"),
        "evm.execute_s": tr.self_s("evm.execute"),
        "evm.executes": tr.n_calls("evm.execute"),
        "evm.instructions": c.get("evm.instructions", 0),
        "evm.runtime.deliver_s": tr.self_s("evm.runtime.deliver"),
        "scenarios.store.stage_s": tr.self_s("scenarios.store.stage_run"),
        "scenarios.store.commit_s": tr.self_s(
            "scenarios.store.commit_staged", "scenarios.store.save_summary",
            "scenarios.store.save_metrics_jsonl"),
        "scenarios.summarize_s": tr.self_s("scenarios.summarize"),
        "warehouse.ingest_s": tr.self_s("warehouse.ingest_store"),
        "warehouse.rows": c.get("warehouse.rows", 0),
        "trace.wrapped_calls": sum(rec[0] for rec in tr.calls.values()),
    }


def light_pass_metrics(tr: Tracer, workers: int,
                       unit_wall_s: float) -> dict[str, float]:
    """Job-level numbers from a pass with only the few-call spans on,
    so the job times are not inflated by the hot wrappers."""
    runs = tr.durations("scenarios.run_scenario")
    job_s = sum(runs) + sum(tr.durations("experiments.widegrid.run_spec"))
    return {
        "scenarios.run_s": statistics.median(runs) if runs else 0.0,
        "scenarios.pool.utilization": job_s / (workers * unit_wall_s),
        "job_s": job_s,
    }


def wire_metrics(tr: Tracer, extra: dict[str, Any]) -> dict[str, float]:
    """Client-side wire time and broker counters of one dist unit."""
    stats = extra["stats"]
    return {
        "dist.lease_wait_p50_s": extra["lease_wait_p50_s"],
        "dist.lease_wait_p95_s": extra["lease_wait_p95_s"],
        "dist.jobs_submitted": stats["jobs_submitted"],
        "dist.jobs_requeued": stats["jobs_requeued"],
        "dist.results_ignored": stats["results_ignored"],
        "dist.protocol.send_s": tr.total_s("dist.protocol.send_message"),
        "dist.protocol.recv_s": tr.total_s("dist.protocol.recv_message"),
    }


def counts_of(metrics: dict[str, float]) -> dict[str, int]:
    return {name: int(metrics[name]) for name in COUNTS}
