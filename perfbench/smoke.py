#!/usr/bin/env python3
"""Smoke test of the benchmark's own code, on tiny grids and one seed.

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` at ``--scale smoke`` with
tracing off and on, and checks that:

- the last stdout line is the result object with exactly the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``;
- every end-to-end (trace 0) or per-layer (trace 1) metric is printed
  by name with its unit, and no other metric is;
- the output checks pass (``correct``, no failed units);
- the deterministic counts repeat exactly across two traced runs;
- in a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
  the benchmark exits non-zero without printing a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, cwd: Path = ROOT,
        ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--scale", "smoke"],
        capture_output=True, text=True, timeout=180, cwd=cwd)


def check_result(bench: dict, workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], \
        sorted(result)
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    assert set(result["metrics"]) == set(units), \
        set(result["metrics"]) ^ set(units)
    body = "\n".join(lines[:-1])
    for name, unit in units.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit, (name, metric)
        assert isinstance(metric["value"], (int, float)), (name, metric)
        assert math.isfinite(metric["value"]), (name, metric)
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in body.splitlines()), f"{name} not printed"
    print(f"ok: {workload} trace={trace}: {len(units)} metrics, "
          f"{result['attempted']} units", flush=True)
    return result


def counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"}


def check_bare_directory(bench: dict) -> None:
    bare = HERE / ".out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench" / path.name)
    proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "bare directory run exited 0"
    assert '"metrics"' not in proc.stdout, "bare directory printed a result"
    print("ok: bare directory exits non-zero without a result", flush=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        check_result(bench, workload, 0)
        first = check_result(bench, workload, 1)
        second = check_result(bench, workload, 1)
        assert counts(first) == counts(second), \
            f"{workload}: counts differ between traced runs"
        print(f"ok: {workload}: deterministic counts repeat exactly")
    check_bare_directory(bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
