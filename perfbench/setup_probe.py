"""One set-up of a workload in a fresh interpreter, timed from the top
of this script until the workload is ready for its first unit: the
``repro`` imports (networkx included), pool spawn, and cluster start up
to worker registration.  Tear-down is not timed.

    python3 perfbench/setup_probe.py <workload> <seed> <scale>

Prints ``{"setup_s": ...}``; ``run.py`` runs it several times and
reports the median.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    name, seed, scale = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workdir = Path(__file__).resolve().parent / ".out" / f"probe-{os.getpid()}"
    workload = workloads.make(name, seed, scale, workdir)
    try:
        workload.load()
        workload.start()
        elapsed = time.perf_counter() - STARTED
    finally:
        workload.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
