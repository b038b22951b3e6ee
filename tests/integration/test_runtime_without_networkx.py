"""The runtime needs no networkx.

networkx is a test-only reference (``tests/net/test_property_nx_reference.py``).
A child interpreter with ``sys.modules["networkx"] = None``, which makes
every ``import networkx`` raise ImportError, runs a 24-node wide-grid
failover trial, a wide-grid placement, the fig1 composition and a
connected random geometric layout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import random
import sys

sys.modules["networkx"] = None

from repro.experiments.fig1 import build_fig1_problem
from repro.experiments.widegrid import (
    WideGridConfig, run_widegrid_placement, run_widegrid_trial)
from repro.net.topology import random_geometric_connected

trial = run_widegrid_trial(WideGridConfig(
    n_nodes=24, area_m=60.0, duration_sec=8.0, crash_primary_at_sec=3.0))
assert trial.n_nodes == 24 and trial.n_links > 0, trial
assert trial.failovers_executed >= 1, trial
placement = run_widegrid_placement(n_nodes=30, area_m=80.0)
assert placement.n_nodes == 30 and placement.bqp_cost > 0, placement
fig1 = build_fig1_problem()
assert fig1.bqp, fig1
topo, range_m = random_geometric_connected(
    60, 100.0, 10.0, random.Random(7))
assert topo.is_connected() and range_m >= 10.0
assert sys.modules["networkx"] is None
print("ok")
"""


def test_runtime_runs_without_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.strip().splitlines()[-1] == "ok"
