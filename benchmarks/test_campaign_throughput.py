"""Campaign-runner throughput: parallel sweep vs serial execution.

Measures scenarios/second over a fixed 8-run grid both ways, checks the
two execution modes produce byte-identical metrics (the fan-out must not
perturb determinism), and guards against the pool making things
catastrophically slower on small machines -- on a single-core box the
parallel path is allowed to pay process-spawn overhead, but not more
than a small constant factor.
"""

import json
import os
import time

from benchmarks.conftest import run_once

from repro.scenarios import CampaignRunner, stock_scenario, sweep

_GRID = sweep([stock_scenario("primary-crash", crash_at_sec=6.0,
                              duration_sec=15.0),
               stock_scenario("wedged-primary", fault_at_sec=6.0,
                              duration_sec=15.0)],
              seeds=[1, 2, 3, 4])

_timings: dict[str, float] = {}


def _run_timed(benchmark, label: str, runner: CampaignRunner):
    """Run the grid once under ``benchmark``; return the result and the
    scenarios/second.  The clock is our own: ``benchmark.stats`` is unset
    under ``--benchmark-disable``."""
    start = time.perf_counter()
    result = run_once(benchmark, lambda: runner.run(_GRID))
    elapsed = time.perf_counter() - start
    _timings[label] = elapsed
    rate = len(_GRID) / elapsed
    benchmark.extra_info["scenarios_per_sec"] = round(rate, 3)
    return result, rate


def test_campaign_serial_throughput(benchmark):
    result, rate = _run_timed(benchmark, "serial",
                              CampaignRunner(parallel=False))
    assert len(result.records) == len(_GRID)
    assert result.summary["total_runs"] == len(_GRID)
    assert rate > 0


def test_campaign_parallel_throughput(benchmark):
    workers = min(4, os.cpu_count() or 1)
    result, rate = _run_timed(benchmark, "parallel",
                              CampaignRunner(max_workers=max(2, workers)))
    assert len(result.records) == len(_GRID)
    assert rate > 0
    # Same grid, same records -- parallelism must not perturb results.
    serial = CampaignRunner(parallel=False).run(_GRID)
    assert json.dumps([r["metrics"] for r in result.records],
                      sort_keys=True) == \
        json.dumps([r["metrics"] for r in serial.records], sort_keys=True)
    if "serial" in _timings:
        # Loose guard: pool overhead may dominate on 1-core CI boxes, but
        # the parallel path must stay within a small factor of serial.
        assert _timings["parallel"] <= _timings["serial"] * 4.0
