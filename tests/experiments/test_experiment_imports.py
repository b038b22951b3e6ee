"""Importing one experiment harness costs only that harness's imports.

The names in ``repro.experiments.__all__`` resolve on first use, so a
wide-grid process (the CLI, a pool child running wide-grid specs) loads
no plant, HIL rig or ModBus gateway.  The module census runs in a fresh
interpreter, because this one has imported everything already.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro.experiments

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_widegrid_loads_no_plant():
    probe = "\n".join([
        "import json, sys",
        "import repro.experiments.widegrid",
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith('repro.'))))"])
    proc = subprocess.run([sys.executable, "-c", probe],
                          env={"PYTHONPATH": "src"}, cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    modules = set(json.loads(proc.stdout))
    assert "repro.experiments.widegrid" in modules
    assert not {m for m in modules if m.startswith("repro.plant")}
    assert not modules & {"repro.experiments.hil", "repro.experiments.fig6",
                          "repro.net.modbus"}


def test_public_names_still_import():
    from repro.experiments import HilRig, run_fig6
    from repro.experiments.fig6 import run_fig6 as home_run_fig6
    from repro.experiments.hil import HilRig as home_hil_rig

    assert HilRig is home_hil_rig
    assert run_fig6 is home_run_fig6
    for name in repro.experiments.__all__:
        assert getattr(repro.experiments, name).__module__.startswith(
            "repro.experiments."), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.experiments.no_such_name
