"""Jobs submitted from a ``python -m`` entry point must stay picklable.

``python -m pkg.mod`` runs ``pkg.mod`` as ``__main__``, so job
functions *and* job payload classes defined there pickle as
``__main__.<qualname>`` -- references the worker process (whose
``__main__`` is the worker CLI) cannot resolve, turning the whole
campaign into deterministic unpickle failures.  The client submit path
pickles through ``runner._PortablePickler``, which rebinds such
globals to the importable module runpy records on
``__main__.__spec__``.
"""

import importlib.machinery
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro.dist import LocalCluster
from repro.dist.cluster import sleepy_echo
from repro.dist.runner import _dumps_portable
from repro.experiments.widegrid import WideGridConfig, WideGridTrialSpec

REPO_ROOT = Path(__file__).resolve().parents[2]


def _fake_main(spec_name, monkeypatch):
    """Install a ``__main__`` shaped like runpy's for ``python -m
    <spec_name>``."""
    fake = types.ModuleType("__main__")
    fake.__spec__ = importlib.machinery.ModuleSpec(spec_name, None)
    monkeypatch.setitem(sys.modules, "__main__", fake)


def _main_alias(fn):
    """A copy of ``fn`` that believes it was defined in ``__main__``."""
    alias = types.FunctionType(
        fn.__code__, fn.__globals__, fn.__name__, fn.__defaults__,
        fn.__closure__)
    alias.__module__ = "__main__"
    alias.__qualname__ = fn.__qualname__
    return alias


def test_portable_pickle_rebinds_main_function(monkeypatch):
    _fake_main("repro.dist.cluster", monkeypatch)
    alias = _main_alias(sleepy_echo)
    with pytest.raises(Exception):
        pickle.loads(pickle.dumps(alias))  # the stock reference is dead
    assert pickle.loads(_dumps_portable(alias)) is sleepy_echo


def test_portable_pickle_rebinds_main_class_instances(monkeypatch):
    _fake_main("repro.experiments.widegrid", monkeypatch)
    monkeypatch.setattr(WideGridTrialSpec, "__module__", "__main__")
    monkeypatch.setattr(WideGridConfig, "__module__", "__main__")
    spec = WideGridTrialSpec(
        kind="failover", config=WideGridConfig(n_nodes=12, seed=1))
    out = pickle.loads(_dumps_portable(spec))
    assert type(out) is WideGridTrialSpec
    assert out == spec


def test_portable_pickle_is_stock_for_importable_objects():
    value = (sleepy_echo, {"value": "x"})
    assert _dumps_portable(value) == pickle.dumps(
        value, protocol=pickle.HIGHEST_PROTOCOL)


def test_portable_pickle_falls_back_without_a_module_spec(monkeypatch):
    fake = types.ModuleType("__main__")  # plain-script shape: no __spec__
    monkeypatch.setitem(sys.modules, "__main__", fake)
    alias = _main_alias(sleepy_echo)
    with pytest.raises(Exception):
        pickle.loads(_dumps_portable(alias))


def test_portable_pickle_falls_back_on_unresolvable_attr(monkeypatch):
    _fake_main("repro.dist.cluster", monkeypatch)
    alias = _main_alias(sleepy_echo)
    alias.__qualname__ = "no_such_function_here"
    with pytest.raises(Exception):
        pickle.loads(_dumps_portable(alias))


def test_widegrid_cli_dist_matches_local_byte_for_byte():
    """The documented surface end to end: ``python -m
    repro.experiments.widegrid --dist`` against a live cluster prints
    exactly what the local serial run prints."""
    argv = [sys.executable, "-m", "repro.experiments.widegrid",
            "--n-nodes", "12", "--seeds", "1", "--duration", "2.0"]
    env = {"PYTHONPATH": "src"}
    local = subprocess.run(
        argv + ["--workers", "0"], env=env, cwd=REPO_ROOT,
        capture_output=True, text=True, timeout=120)
    assert local.returncode == 0, local.stderr
    with LocalCluster(n_workers=2, slots=2) as cluster:
        cluster.wait_for_workers()
        dist = subprocess.run(
            argv + ["--dist", cluster.address], env=env, cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=120)
    assert dist.returncode == 0, dist.stderr
    assert dist.stdout == local.stdout
    assert "widegrid-failover-n12-s1" in dist.stdout
