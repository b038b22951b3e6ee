"""``repro.obs`` -- the unified telemetry layer.

A process-global :class:`~repro.obs.metrics.MetricsRegistry` that the
instrumented subsystems (engine, medium, RT-Link, EVM, scheduler, plant,
campaign runners) publish into, plus export edges: Prometheus text
exposition over a stdlib HTTP server (``python -m repro.obs serve``),
JSON snapshots, and per-run JSONL deltas attached to campaign stores.

Telemetry is **off by default** and the disabled fast path is the whole
design: instrumented constructors call
``repro.obs.instrument.<layer>_meters()``, which returns ``None`` while
disabled, so every hot site guards with a single ``if self._obs is not
None:`` -- the same one-attribute-check discipline as
``Medium.trace_enabled``.  Enabling telemetry only affects objects
constructed *afterwards*; that is deliberate (a registry swap mid-run
would tear metrics across registries).

Enable programmatically (:func:`enable`) or via ``REPRO_OBS=1`` in the
environment -- the env path is what carries enablement into campaign
pool workers and distributed workers, which are separate processes.
"""

from __future__ import annotations

import os

from repro.obs.metrics import (  # noqa: F401 - re-exports
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    delta_values,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "delta_values",
    "enabled",
    "enable",
    "disable",
    "get_registry",
]

_registry: MetricsRegistry | None = None


def enabled() -> bool:
    """True when a registry is active (new objects will instrument)."""
    return _registry is not None


def enable(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Activate telemetry, optionally into a caller-supplied registry.

    Idempotent when already enabled and no explicit registry is given.
    Returns the active registry.
    """
    global _registry
    if registry is not None:
        _registry = registry
    elif _registry is None:
        _registry = MetricsRegistry()
    return _registry


def disable() -> None:
    """Deactivate telemetry.  Objects constructed while enabled keep
    their (now-orphaned) meter bundles; new objects bind ``None``."""
    global _registry
    _registry = None


def get_registry() -> MetricsRegistry | None:
    """The active registry, or ``None`` while disabled."""
    return _registry


_ENV_TRUE = ("1", "true", "yes", "on")

if os.environ.get("REPRO_OBS", "").strip().lower() in _ENV_TRUE:
    # Subprocesses (campaign pool workers, dist workers) inherit the
    # environment, so REPRO_OBS=1 enables the whole process tree.
    enable()
