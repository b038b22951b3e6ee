#!/usr/bin/env python3
"""Steadiness report: run the benchmark repeatedly and compare each
end-to-end metric's spread with its bound from ``BENCHMARK.json``.

    python3 perfbench/steadiness.py --seeds 1-10
    python3 perfbench/steadiness.py --seeds 11-20 --compare \\
        perfbench/.out/steadiness-1-10.json
    python3 perfbench/steadiness.py --seeds 1-2 --trace 1

For each workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and whether it fits the metric's bound (and a
third of it), ``setup_s`` included.  With
``--compare`` it also checks that each median is not worse than the
earlier report's by more than the bound.  With ``--trace 1`` every
seed runs twice and the deterministic work counts must repeat exactly.
Runs are sequential; the report is saved under ``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from record import seed_range

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread_rows(bench: dict, values: dict[str, dict[str, list[float]]],
                previous: dict | None) -> tuple[list[str], bool]:
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    lines, ok = [], True
    lines.append(f"{'workload':<15} {'metric':<12} {'n':>2} {'median':>10} "
                 f"{'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}  verdict")
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]["bound"]
            if spread <= bound / 3:
                verdict = "ok (< bound/3)"
            elif spread <= bound:
                verdict = "ok"
            else:
                verdict, ok = "TOO WIDE", False
            if previous is not None:
                before = statistics.median(previous[workload][name])
                sign = 1 if bounds[name]["better"] == "lower" else -1
                drift = sign * (med - before) / before
                verdict += f", vs earlier {drift:+.3f}"
                if drift > bound:
                    verdict += " WORSE THAN BOUND"
                    ok = False
            lines.append(f"{workload:<15} {name:<12} {len(vals):>2} "
                         f"{med:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                         f"{spread:>7.3f} {bound:>6.2f}  {verdict}")
    return lines, ok


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", type=Path, default=None,
                        help="an earlier report to compare medians with")
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    values: dict[str, dict[str, list[float]]] = {}
    ok = True
    for workload in args.workloads:
        for seed in args.seeds:
            repeats = 2 if args.trace else 1
            results = [run_once(workload, seed, seconds, args.trace)
                       for _ in range(repeats)]
            for result in results:
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: {result['failed']} of "
                          f"{result['attempted']} units failed")
                    ok = False
                for name, metric in result["metrics"].items():
                    values.setdefault(workload, {}).setdefault(
                        name, []).append(metric["value"])
            if args.trace:
                counts = [{k: m["value"] for k, m in r["metrics"].items()
                           if m["unit"] == "count"} for r in results]
                same = counts[0] == counts[1]
                ok = ok and same
                print(f"{workload} seed {seed}: deterministic counts "
                      f"{'repeat exactly' if same else 'DIFFER'}", flush=True)
            else:
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{k}={m['value']:.4f}"
                    for k, m in sorted(results[0]["metrics"].items())),
                    flush=True)
    label = f"{args.seeds[0]}-{args.seeds[-1]}"
    out = HERE / ".out" / f"steadiness-t{args.trace}-{label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(values, indent=1, sort_keys=True))
    if not args.trace:
        previous = (json.loads(args.compare.read_text())
                    if args.compare else None)
        lines, spread_ok = spread_rows(bench, values, previous)
        print("\n".join(lines))
        ok = ok and spread_ok
    print(f"report: {out.relative_to(ROOT)}; "
          f"{'steady' if ok else 'NOT STEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
