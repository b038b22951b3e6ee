"""The perf-trend gate: the regression rule over ``BENCH_*.json``.

``python -m repro.warehouse trend --gate`` is the one gate CI runs.
These cases pin the rule itself (``trend_failures`` and
``obs_overhead_failures`` over ``(number, snapshot)`` pairs); the
round trip through ingest and the CLI exit codes is covered in
``test_warehouse.py``.
"""

from pathlib import Path

from repro.warehouse import bench_snapshots, ingest_bench, open_warehouse
from repro.warehouse.cli import main as cli_main
from repro.warehouse.query import (
    is_duration_meter,
    obs_overhead_failures,
    trend_failures,
)

from test_warehouse import write_bench

_REPO_ROOT = Path(__file__).resolve().parents[2]


def test_bench_snapshots_in_numeric_order(tmp_path):
    paths = [write_bench(tmp_path, 10, {"optimized": {"m": 1.0}}),
             write_bench(tmp_path, 2, {"optimized": {"m": 1.0}})]
    with open_warehouse(tmp_path / "wh") as wh:
        ingest_bench(wh, paths)
        assert [n for n, _ in bench_snapshots(wh)] == [2, 10]


def test_comparison_is_against_latest_prior_with_meter():
    # BENCH_2 lacks the meter: BENCH_3 compares against BENCH_1, and a
    # recovery in BENCH_3 must not be judged against BENCH_1's peak.
    snapshots = [(1, {"optimized": {"m": 100.0, "n": 50.0}}),
                 (2, {"optimized": {"n": 49.0}}),
                 (3, {"optimized": {"m": 90.0, "n": 45.0}})]
    assert trend_failures(snapshots, tolerance=0.20) == []
    snapshots.append((4, {"optimized": {"m": 60.0}}))  # -33% vs BENCH_3
    failures = trend_failures(snapshots, tolerance=0.20)
    assert len(failures) == 1 and "BENCH_3" in failures[0]


def test_late_appearing_meters_are_new_not_regressions():
    """Meters that first appear mid-history (``widegrid_1000_trial_sec``
    and ``dist_frames_per_sec`` landed after BENCH_6) have no prior and
    must pass both the rate rule and the duration rule."""
    snapshots = [(6, {"optimized": {"m": 100.0}}),
                 (7, {"optimized": {"m": 100.0,
                                    "widegrid_1000_trial_sec": 13.7,
                                    "dist_frames_per_sec": 5e4}})]
    assert trend_failures(snapshots, tolerance=0.20) == []
    # And from then on they are gated like any other meter.
    snapshots.append((8, {"optimized": {"m": 100.0,
                                        "widegrid_1000_trial_sec": 20.0}}))
    failures = trend_failures(snapshots, tolerance=0.20)
    assert len(failures) == 1 and "widegrid_1000_trial_sec" in failures[0]


def test_obs_overhead_within_budget_passes():
    snapshots = [(6, {"optimized": {"m": 1.0},
                      "obs_overhead": {"m": {"off": 100.0, "on": 95.0,
                                             "overhead_pct": 5.0}}})]
    assert obs_overhead_failures(snapshots) == []
    assert obs_overhead_failures([(1, {"optimized": {"m": 1.0}})]) == []


def test_obs_overhead_beyond_budget_fails():
    snapshots = [(6, {"optimized": {"m": 1.0},
                      "obs_overhead": {"m": {"off": 100.0, "on": 80.0,
                                             "overhead_pct": 20.0}}})]
    failures = obs_overhead_failures(snapshots)
    assert len(failures) == 1
    assert "20.00%" in failures[0] and "10% budget" in failures[0]


def test_obs_overhead_judged_on_latest_table_only():
    # An old over-budget table superseded by a healthy one must pass:
    # the budget constrains the current instrumentation, not history.
    snapshots = [(5, {"obs_overhead": {"m": {"overhead_pct": 30.0}}}),
                 (6, {"obs_overhead": {"m": {"overhead_pct": 3.0}}})]
    assert obs_overhead_failures(snapshots) == []


def test_duration_meter_regression_is_a_rise():
    # *_sec meters (wide-grid trial wall-clock) improve downward.
    snapshots = [(1, {"optimized": {"trial_sec": 1.0}}),
                 (2, {"optimized": {"trial_sec": 1.15}})]  # +15% < 20%
    assert trend_failures(snapshots, tolerance=0.20) == []
    snapshots.append((3, {"optimized": {"trial_sec": 1.45}}))  # +26%
    failures = trend_failures(snapshots, tolerance=0.20)
    assert len(failures) == 1 and "trial_sec" in failures[0]
    assert "above" in failures[0]


def test_duration_meter_improvement_never_fails():
    snapshots = [(1, {"optimized": {"trial_sec": 2.0}}),
                 (2, {"optimized": {"trial_sec": 0.5}})]  # 4x faster
    assert trend_failures(snapshots, tolerance=0.20) == []


def test_per_sec_suffix_is_a_rate_not_a_duration():
    # events_per_sec ends in _sec lexically; it must use the rate rule.
    assert is_duration_meter("trial_sec")
    assert not is_duration_meter("events_per_sec")
    snapshots = [(1, {"optimized": {"events_per_sec": 100.0}}),
                 (2, {"optimized": {"events_per_sec": 130.0}})]  # faster
    assert trend_failures(snapshots, tolerance=0.20) == []
    snapshots.append((3, {"optimized": {"events_per_sec": 90.0}}))  # -31%
    assert len(trend_failures(snapshots, tolerance=0.20)) == 1


def test_committed_bench_snapshots_pass_the_gate(tmp_path, capsys):
    """The repo's own BENCH_*.json satisfy the gate, run the way CI
    runs it: ingest into a fresh warehouse, then ``trend --gate``."""
    snapshots = sorted(_REPO_ROOT.glob("BENCH_*.json"))
    assert snapshots, "no committed BENCH_*.json snapshots"
    db = str(tmp_path / "wh")
    assert cli_main(["ingest", "--db", db, "--bench",
                     *map(str, snapshots)]) == 0
    assert cli_main(["trend", "--db", db, "--gate"]) == 0
    assert "trend: ok" in capsys.readouterr().out

