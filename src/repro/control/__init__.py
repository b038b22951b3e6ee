"""Control engineering substrate.

The case study's controllers "perform second order filtering with a PID
regulator".  This package provides:

- :func:`~repro.control.filters.lowpass_coefficients` -- the RBJ biquad
  low-pass design the law's filter stage uses;
- :class:`~repro.control.controller.FilteredPidController` -- the composed
  control law in Python, which the gas plant's local regulators run;
- :mod:`~repro.control.compiler` -- compiles the same law to EVM bytecode,
  so the simulated nodes genuinely interpret it (and migration genuinely
  transplants its state).
"""

from repro.control.compiler import (
    SLOT_INPUT,
    SLOT_INTEGRAL,
    SLOT_OUTPUT,
    SLOT_PREV_ERROR,
    SLOT_SETPOINT,
    compile_filtered_pid,
)
from repro.control.controller import ControlLawConfig, FilteredPidController

__all__ = [
    "ControlLawConfig",
    "FilteredPidController",
    "compile_filtered_pid",
    "SLOT_INPUT",
    "SLOT_OUTPUT",
    "SLOT_SETPOINT",
    "SLOT_INTEGRAL",
    "SLOT_PREV_ERROR",
]
