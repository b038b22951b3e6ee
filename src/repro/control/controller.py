"""The composed control law, in pure Python form.

:class:`FilteredPidController` mirrors the bytecode emitted by
:func:`repro.control.compiler.compile_filtered_pid` *exactly* -- same state
layout, same clamp order, prev-error initialized to zero -- so tests can
assert the interpreter and this implementation agree step-for-step.  The
gas plant's local regulators run this form; the wireless controllers
interpret the bytecode.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.control.compiler import (
    MEMORY_SLOTS,
    SLOT_FILTER_Z1,
    SLOT_FILTER_Z2,
    SLOT_FILTERED,
    SLOT_INPUT,
    SLOT_INTEGRAL,
    SLOT_OUTPUT,
    SLOT_PREV_ERROR,
    SLOT_SETPOINT,
    compile_filtered_pid,
)
from repro.control.filters import BiquadCoefficients, lowpass_coefficients
from repro.evm.bytecode import Program


@dataclass(frozen=True)
class ControlLawConfig:
    """Everything that parameterizes one filtered-PID control loop."""

    kp: float
    ki: float
    kd: float
    dt_sec: float
    setpoint: float
    filter_cutoff_hz: float
    out_min: float = 0.0
    out_max: float = 100.0
    integral_min: float = -1000.0
    integral_max: float = 1000.0

    def coefficients(self) -> BiquadCoefficients:
        return lowpass_coefficients(self.filter_cutoff_hz, self.dt_sec)

    def compile(self, name: str) -> Program:
        return compile_filtered_pid(
            name=name, coefficients=self.coefficients(),
            kp=self.kp, ki=self.ki, kd=self.kd, dt_sec=self.dt_sec,
            out_min=self.out_min, out_max=self.out_max,
            integral_min=self.integral_min, integral_max=self.integral_max)

    def initial_memory(self, measurement: float,
                       output: float) -> tuple[float, ...]:
        """A steady-state preload for the task data segment.

        Makes a controller come online bumplessly at operating point
        (``measurement``, ``output``): filter settled at the measurement,
        integral positioned so the PID emits ``output`` at zero transient.
        """
        c = self.coefficients()
        z2 = c.b2 * measurement - c.a2 * measurement
        z1 = c.b1 * measurement - c.a1 * measurement + z2
        error = self.setpoint - measurement
        if self.ki != 0.0:
            integral = (output - self.kp * error) / self.ki
            integral = min(self.integral_max,
                           max(self.integral_min, integral))
        else:
            integral = 0.0
        memory = [0.0] * MEMORY_SLOTS
        memory[SLOT_INPUT] = measurement
        memory[SLOT_OUTPUT] = output
        memory[SLOT_SETPOINT] = self.setpoint
        memory[SLOT_FILTER_Z1] = z1
        memory[SLOT_FILTER_Z2] = z2
        memory[SLOT_INTEGRAL] = integral
        memory[SLOT_PREV_ERROR] = error
        memory[SLOT_FILTERED] = measurement
        return tuple(memory)


class FilteredPidController:
    """The law in Python, over the same memory slots as the bytecode.

    ``step`` is the one Python body of the law: the gas plant's local
    regulators call it every plant step, and the tests check it against
    the bytecode.  It is a self-free closure over ``memory`` and the
    law's constants, built once at construction; retuning means building
    a new controller, exactly as a retuned bytecode law means compiling a
    new program -- mutating ``config`` after construction does not reach
    ``step``.
    """

    def __init__(self, config: ControlLawConfig,
                 memory: list[float] | None = None) -> None:
        self.config = config
        self.coefficients = c = config.coefficients()
        if memory is None:
            memory = [0.0] * MEMORY_SLOTS
            memory[SLOT_SETPOINT] = config.setpoint
        self.memory = mem = memory
        b0, b1, b2, a1, a2 = c.b0, c.b1, c.b2, c.a1, c.a2
        dt_sec = config.dt_sec
        integral_min, integral_max = config.integral_min, config.integral_max
        kp, ki, kd = config.kp, config.ki, config.kd
        out_min, out_max = config.out_min, config.out_max

        def step(measurement: float) -> float:
            """One control period; mirrors the bytecode
            instruction-for-instruction."""
            mem[SLOT_INPUT] = measurement
            x = measurement
            y = b0 * x + mem[SLOT_FILTER_Z1]
            mem[SLOT_FILTERED] = y
            mem[SLOT_FILTER_Z1] = b1 * x - a1 * y + mem[SLOT_FILTER_Z2]
            mem[SLOT_FILTER_Z2] = b2 * x - a2 * y
            error = mem[SLOT_SETPOINT] - y
            integral = mem[SLOT_INTEGRAL] + error * dt_sec
            # Clamps are the builtins written out: CPython's two-argument
            # min/max return the second argument only on a strict
            # compare, so these conditionals are bit-identical (ties and
            # -0.0 included) while skipping two calls per clamp on the
            # plant's hottest loop.
            integral = integral if integral < integral_max else integral_max
            integral = integral if integral > integral_min else integral_min
            mem[SLOT_INTEGRAL] = integral
            derivative = (error - mem[SLOT_PREV_ERROR]) / dt_sec
            output = (kd * derivative + kp * error + ki * integral)
            output = output if output < out_max else out_max
            output = output if output > out_min else out_min
            mem[SLOT_OUTPUT] = output
            mem[SLOT_PREV_ERROR] = error
            return output

        self.step = step

    @property
    def output(self) -> float:
        return self.memory[SLOT_OUTPUT]
