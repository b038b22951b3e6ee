#!/usr/bin/env python3
"""End-to-end benchmark of the EVM reproduction.

    python3 perfbench/run.py --workload widegrid_1000 --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads: ``widegrid_1000``, ``hil_campaign``, ``dist_campaign`` (see
``workloads.py`` and ``BENCHMARK.json``).

``--trace 0`` measures the end-to-end metrics with tracing off:
``setup_s`` (median of fresh set-up probes), ``wall_s`` (host seconds
per unit over the run), ``runs_per_s`` and ``peak_rss_mb``.  ``--trace 1``
installs the span wrappers of ``layers.py`` and reports the per-layer
metrics, a self-time table and the tracing overhead, and writes the
spans to ``perfbench/.out/spans/``.  Pool and cluster jobs run in child
processes the wrappers cannot see, so on the campaign workloads the
traced passes run the same jobs serially in this process.

Every unit's outputs are digested and compared with the digests in
``expected.json`` (or, at a seed not recorded there, with the first
unit of the run); a mismatch or an exception counts as a failed unit.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import layers
import workloads
from spans import self_time_table, write_span_file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
EXPECTED = HERE / "expected.json"

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("runs_per_s", "1/s"),
              ("peak_rss_mb", "MB")]
SETUP_PROBES = 11


def prepare_environment() -> None:
    """Put ``src/`` on the path for this process and its children, keep
    temporary files inside the checkout, and pin telemetry off."""
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    os.environ.pop("REPRO_OBS", None)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def host_stanza(workload) -> dict:
    usable = len(os.sched_getaffinity(0))
    return {
        "nproc": os.cpu_count(), "cpus_usable": usable,
        "python": platform.python_version(),
        "platform": platform.platform(), "commit": git_commit(),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "workload": workload.name, "workers": workload.workers,
        "client_threads": workload.threads, "shape": workload.shape,
        "oversubscribed": max(workload.workers,
                              workload.threads) > usable,
    }


def tree_rss_mb() -> float:
    """Peak RSS of this process plus every live descendant (VmHWM)."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    total_kb, todo = 0, [os.getpid()]
    while todo:
        pid = todo.pop()
        todo += children.get(pid, [])
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def setup_probe(name: str, seed: int, scale: str) -> float:
    """Time one set-up in a fresh interpreter (imports, pool spawn,
    cluster start up to worker registration)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
         scale], capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Checker:
    """Compares output digests and work counts with the recorded ones
    for this seed, or with the first unit of the run."""

    def __init__(self, workload: str, scale: str, seed: int) -> None:
        recorded = {}
        if EXPECTED.exists():
            recorded = json.loads(EXPECTED.read_text()).get(
                scale, {}).get(str(seed), {})
        self.outputs: dict[str, str] = dict(recorded.get("outputs", {}))
        self.counts = recorded.get("counts", {}).get(workload)
        self.source = ("digests recorded in expected.json" if recorded
                       else "first unit of this run")

    def outputs_errors(self, outcome) -> list[str]:
        errors = []
        for name, value in sorted(outcome.outputs.items()):
            want = self.outputs.setdefault(name, value)
            if value != want:
                errors.append(f"{name} digest {value} != {want}")
        return errors

    def counts_errors(self, counts: dict[str, int]) -> list[str]:
        if self.counts is None:
            self.counts = counts
        return [f"{name} = {counts[name]} != {self.counts.get(name)}"
                for name in sorted(counts)
                if counts[name] != self.counts.get(name)]


def run_pass(kind: str, index: int, call, checker: Checker,
             tracer=None):
    """Run one unit or pass (under ``tracer`` when given), then its
    output checks; an exception becomes a failed outcome."""
    try:
        if tracer is None:
            outcome = call()
        else:
            with tracer:
                outcome = call()
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        outcome = workloads.Outcome(float("nan"), 0, errors=[f"{exc!r}"])
    outcome.finish()
    outcome.errors += checker.outputs_errors(outcome)
    status = "ok" if not outcome.errors else "FAILED " + "; ".join(
        outcome.errors)
    print(f"{kind} {index}: wall {outcome.wall_s:.4f} s, "
          f"{outcome.runs} runs, {status}")
    return outcome


def finite(value: float) -> bool:
    return value == value and abs(value) != float("inf")


def keep_going(spent: float, walls: list[float], seconds: float) -> bool:
    """Start another unit only if it should end inside the budget."""
    done = [w for w in walls if finite(w)]
    if not done:
        return not walls
    return spent + statistics.median(done) <= seconds


def measure(workload, args, checker: Checker) -> tuple[dict, list]:
    """``--trace 0``: closed-loop units for ``--seconds`` of unit time.
    Set-up probe ``k`` runs before the first unit that starts after
    ``k / SETUP_PROBES`` of the unit time (the rest after the last), so
    the probes sample the whole run, not one moment of it."""
    workload.load()
    workload.start()
    outcomes, setups = [], []
    try:
        while keep_going(spent := sum(o.wall_s for o in outcomes
                                      if finite(o.wall_s)),
                         [o.wall_s for o in outcomes], args.seconds):
            while (len(setups) < SETUP_PROBES
                   and len(setups) * args.seconds <= spent * SETUP_PROBES):
                setups.append(setup_probe(workload.name, args.seed,
                                          args.scale))
            i = len(outcomes)
            outcomes.append(run_pass("unit", i, lambda: workload.unit(i),
                                     checker))
        rss = tree_rss_mb()
    finally:
        workload.stop()
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(workload.name, args.seed, args.scale))
    print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
    good = [o for o in outcomes if finite(o.wall_s)]
    if not good:
        raise RuntimeError("every unit failed")
    for o in good:
        if o.extra:
            print("  unit detail: " + json.dumps(o.extra, sort_keys=True))
    walls = sorted(o.wall_s for o in good)
    print(f"unit wall_s: n={len(walls)} min {walls[0]:.4f} median "
          f"{statistics.median(walls):.4f} max {walls[-1]:.4f}")
    # Host seconds per unit over the whole measured window (total time
    # / units), not the median unit: the host's cores switch between a
    # fast and a slow speed every few seconds, and a median of a few
    # units lands on whichever mode held the majority of them.
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(walls) / len(walls),
        "runs_per_s": sum(o.runs for o in good) / sum(walls),
        "peak_rss_mb": rss,
    }, outcomes


def measure_traced(workload, args, checker: Checker) -> tuple[dict, list]:
    """``--trace 1``: cycles of (untraced unit, light serial pass, fully
    traced serial pass) on the campaign workloads, (untraced trial,
    traced trial) on the wide grid.  On ``dist_campaign`` the unit runs
    with only the client's wire calls wrapped."""
    workload.load()
    workload.start()
    outcomes, tracers, cycles = [], [], []
    run = f"{workload.name}-s{args.seed}-p{os.getpid()}"
    try:
        started = time.perf_counter()
        while keep_going(time.perf_counter() - started,
                         [c["wall"] for c in cycles], args.seconds):
            i, t0, cycle = len(cycles), time.perf_counter(), {}
            wire = (layers.wire_tracer(f"{run}-unit{i}")
                    if workload.distributed else None)
            base = run_pass("unit", i, lambda: workload.unit(i), checker,
                            wire)
            passes = [base]
            if wire is not None:
                tracers.append(wire)
                if base.extra:
                    cycle.update(layers.wire_metrics(wire, base.extra))
            light = None
            if workload.has_pool:
                light = layers.light_tracer(f"{run}-light{i}")
                passes.append(run_pass("light serial pass", i,
                                       lambda: workload.serial(i), checker,
                                       light))
                tracers.append(light)
            full = layers.full_tracer(f"{run}-full{i}")
            passes.append(run_pass("traced serial pass", i,
                                   lambda: workload.serial(i), checker, full))
            tracers.append(full)
            cycle.update(layers.full_pass_metrics(full))
            if light is None:
                cycle["trace.overhead_s"] = passes[-1].wall_s - base.wall_s
            else:
                cycle.update(layers.light_pass_metrics(
                    light, workload.workers, base.wall_s))
                cycle["trace.overhead_s"] = full.wall_s - light.wall_s
                if workload.distributed and cycle["job_s"]:
                    cycle["dist.overhead_ratio"] = (
                        workload.workers * base.wall_s / cycle["job_s"])
            passes[-1].errors += checker.counts_errors(
                layers.counts_of(cycle))
            outcomes += passes
            cycle["wall"] = time.perf_counter() - t0
            cycles.append(cycle)
            print("self time, traced pass %d (%.3f s):" % (i, full.wall_s))
            print("\n".join(self_time_table(full)))
    finally:
        workload.stop()
    spans_path = OUT / "spans" / f"{run}.jsonl"
    rows = write_span_file(spans_path, tracers)
    print(f"spans: {rows} rows -> {spans_path.relative_to(ROOT)}")
    if workload.has_pool:
        print("traced passes ran the pool/cluster jobs serially in this "
              "process so every span is captured")
    metrics = {}
    for name, _unit, _what in layers.PER_LAYER:
        values = [c[name] for c in cycles
                  if finite(c.get(name, float("nan")))]
        metrics[name] = statistics.median(values) if values else 0
    return metrics, outcomes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny grids for the benchmark's own test")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: {SRC / 'repro'} not found; run from the root of "
              f"a full checkout", file=sys.stderr)
        return 2
    prepare_environment()
    import repro
    if Path(list(repro.__path__)[0]).resolve() != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {list(repro.__path__)}, "
              f"not {SRC / 'repro'}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.make(args.workload, args.seed, args.scale, workdir)
    host = host_stanza(workload)
    print(f"perfbench {args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("host " + json.dumps(host, sort_keys=True))
    if host["oversubscribed"]:
        print(f"WARNING: {args.workload} configures more workers/threads "
              f"than the {host['cpus_usable']} usable CPUs")
    checker = Checker(args.workload, args.scale, args.seed)
    try:
        if args.trace:
            metrics, outcomes = measure_traced(workload, args, checker)
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
        else:
            metrics, outcomes = measure(workload, args, checker)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for o in outcomes if o.errors)
    print(f"output checks against the {checker.source}")
    print(f"fail_ratio: {failed}/{len(outcomes)} = "
          f"{failed / len(outcomes):.3f}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6f} {units[name]}")
    result = {
        "correct": failed == 0, "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-s{args.seed}-t{args.trace}-"
                   f"{os.getpid()}.json").write_text(json.dumps(
        {"host": host, "args": vars(args), "result": result,
         "units": [{"wall_s": o.wall_s, "runs": o.runs,
                    "errors": o.errors, "extra": o.extra}
                   for o in outcomes]}, indent=1, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
