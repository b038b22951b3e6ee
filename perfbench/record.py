#!/usr/bin/env python3
"""Record the expected output digests and work counts per seed.

    python3 perfbench/record.py --scale full --seeds 0-20

For each seed, each workload's jobs run serially in this process under
the full tracer; the digests of their outputs and their deterministic
work counts go into ``perfbench/expected.json``.  ``run.py`` compares
every unit and traced pass with them, so a result that changes shows
up as a failed unit.  Re-record only when the program's results change
on purpose.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import layers
import workloads
from run import EXPECTED, OUT, SRC, prepare_environment


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def record_seed(seed: int, scale: str) -> dict:
    outputs: dict[str, str] = {}
    counts: dict[str, dict[str, int]] = {}
    for name in workloads.WORKLOADS:
        workdir = OUT / f"record-{name}"
        workload = workloads.make(name, seed, scale, workdir)
        workload.load()
        tracer = layers.full_tracer(f"record-{name}-s{seed}")
        with tracer:
            outcome = workload.serial(0)
        outcome.finish()
        shutil.rmtree(workdir, ignore_errors=True)
        if outcome.errors:
            raise RuntimeError(f"{name} seed {seed}: {outcome.errors}")
        for key, value in outcome.outputs.items():
            if outputs.setdefault(key, value) != value:
                raise RuntimeError(f"{key} differs between workloads at "
                                   f"seed {seed}")
        counts[name] = layers.counts_of(layers.full_pass_metrics(tracer))
        print(f"seed {seed} {name}: {tracer.wall_s:.2f} s "
              f"{json.dumps(counts[name], sort_keys=True)}", flush=True)
    return {"outputs": outputs, "counts": counts}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--seeds", type=seed_range, default=[1],
                        help="a seed or an inclusive range such as 0-20")
    args = parser.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"record: {SRC / 'repro'} not found", file=sys.stderr)
        return 2
    prepare_environment()
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for seed in args.seeds:
        expected.setdefault(args.scale, {})[str(seed)] = record_seed(
            seed, args.scale)
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
