"""Importing a ``repro.dist`` module costs only that module's imports.

A worker agent hands each pickled job to its executor unopened, so
``python -m repro.dist worker`` must load the wire protocol and none of
the simulator, the broker or asyncio; the names in
``repro.dist.__all__`` resolve on first use instead of at package
import.  The module censuses run in fresh interpreters, because this
one has imported everything already.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro.dist

REPO_ROOT = Path(__file__).resolve().parents[2]


def _after(statement):
    """The ``repro`` modules a fresh interpreter holds after running
    ``statement``, and whether it loaded asyncio."""
    probe = "\n".join([
        "import json, sys",
        statement,
        "print(json.dumps([sorted(m for m in sys.modules if m == 'repro'"
        " or m.startswith('repro.')), 'asyncio' in sys.modules]))"])
    proc = subprocess.run([sys.executable, "-c", probe],
                          env={"PYTHONPATH": "src"}, cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    modules, asyncio_loaded = json.loads(proc.stdout)
    return set(modules), asyncio_loaded


def test_worker_agent_imports_only_the_wire():
    modules, asyncio_loaded = _after("import repro.dist.cli, repro.dist.worker")
    assert modules == {"repro", "repro.dist", "repro.dist.cli",
                       "repro.dist.protocol", "repro.dist.worker"}
    assert not asyncio_loaded


def test_coordinator_adds_only_the_broker():
    modules, _ = _after("import repro.dist.coordinator")
    assert modules == {"repro", "repro.dist", "repro.dist.protocol",
                       "repro.dist.coordinator", "repro.dist.aiobroker",
                       "repro.dist.fairshare"}


def test_public_names_resolve_to_their_definitions():
    assert len(repro.dist.__all__) == 9
    for name in repro.dist.__all__:
        value = getattr(repro.dist, name)
        assert value.__module__.startswith("repro.dist."), name
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.dist.no_such_name
