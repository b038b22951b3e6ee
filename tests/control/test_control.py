"""The filtered-PID law: its PID and filter stages, and the compiled form."""

import pytest

from repro.control.compiler import (
    SLOT_FILTERED,
    SLOT_INPUT,
    SLOT_INTEGRAL,
    SLOT_OUTPUT,
    SLOT_SETPOINT,
    compile_filtered_pid,
    compile_passthrough,
)
from repro.control.controller import ControlLawConfig, FilteredPidController
from repro.control.filters import lowpass_coefficients
from repro.evm.interpreter import Interpreter


def _law(kp=0.0, ki=0.0, kd=0.0, dt_sec=0.1, setpoint=0.0,
         cutoff_hz=0.2, **bounds):
    """The law preloaded at rest at measurement 0 and output 0: the filter
    is settled (it passes 0 exactly) and the previous error equals the
    current one, so each PID term acts on an exact error."""
    config = ControlLawConfig(kp=kp, ki=ki, kd=kd, dt_sec=dt_sec,
                              setpoint=setpoint, filter_cutoff_hz=cutoff_hz,
                              **bounds)
    return FilteredPidController(config,
                                 list(config.initial_memory(0.0, 0.0)))


class TestPid:
    """The PID stage of the law the plant runs."""

    def test_proportional_action(self):
        law = _law(kp=2.0, setpoint=5.0, out_min=-100, out_max=100)
        assert law.step(0.0) == pytest.approx(10.0)

    def test_integral_accumulates(self):
        law = _law(ki=1.0, dt_sec=0.5, setpoint=2.0, out_min=-100,
                   out_max=100)
        law.step(0.0)
        assert law.step(0.0) == pytest.approx(2.0)  # integral = 2*0.5*2

    def test_derivative_kick_suppressed_first_step(self):
        law = _law(kd=1.0, setpoint=5.0, out_min=-100, out_max=100)
        assert law.step(0.0) == 0.0
        law.memory[SLOT_SETPOINT] = 6.0
        assert law.step(0.0) == pytest.approx(10.0)

    def test_output_clamping(self):
        law = _law(kp=100.0, setpoint=50.0, out_min=0, out_max=100)
        assert law.step(0.0) == 100.0
        law.memory[SLOT_SETPOINT] = -50.0
        assert law.step(0.0) == 0.0

    def test_anti_windup(self):
        law = _law(ki=1.0, dt_sec=1.0, setpoint=10.0, out_min=0,
                   out_max=100, integral_min=-5, integral_max=5)
        for _ in range(100):
            law.step(0.0)
        assert law.memory[SLOT_INTEGRAL] == 5.0


class TestFilter:
    def test_dc_gain_is_unity(self):
        c = lowpass_coefficients(0.5, 0.1)
        assert (c.b0 + c.b1 + c.b2) / (1.0 + c.a1 + c.a2) == \
            pytest.approx(1.0, rel=1e-12)

    def test_attenuates_high_frequency(self):
        """The law's filter stage, read through SLOT_FILTERED with the
        PID gains at zero."""
        dt = 0.05
        law = _law(dt_sec=dt)
        # 5 Hz square-ish dither around 10 after settling.
        for _ in range(400):
            law.step(10.0)
        filtered = []
        for i in range(200):
            law.step(10.0 + (5.0 if i % 2 == 0 else -5.0))
            filtered.append(law.memory[SLOT_FILTERED])
        ripple = max(filtered) - min(filtered)
        assert ripple < 1.0  # 10-unit input swing crushed

    def test_settle_to_removes_transient(self):
        """``initial_memory`` preloads the filter state settled at the
        measurement, so the first filtered sample equals it."""
        config =ControlLawConfig(kp=0.0, ki=0.0, kd=0.0, dt_sec=0.1,
                                  setpoint=0.0, filter_cutoff_hz=0.5)
        law = FilteredPidController(
            config, list(config.initial_memory(42.0, 0.0)))
        law.step(42.0)
        assert law.memory[SLOT_FILTERED] == pytest.approx(42.0, rel=1e-9)

    def test_coefficient_validation(self):
        with pytest.raises(ValueError):
            lowpass_coefficients(0.0, 0.1)
        with pytest.raises(ValueError):
            lowpass_coefficients(10.0, 0.1)  # at/above Nyquist

    def test_stability(self):
        """Poles inside the unit circle: a2 < 1 and |a1| < 1 + a2."""
        for cutoff, dt in ((0.05, 0.25), (0.5, 0.25), (1.0, 0.25)):
            c = lowpass_coefficients(cutoff, dt)
            assert abs(c.a2) < 1.0
            assert abs(c.a1) < 1.0 + c.a2


class TestControlLawConfig:
    def _config(self):
        return ControlLawConfig(kp=-3.0, ki=-0.01, kd=0.0, dt_sec=0.25,
                                setpoint=50.0, filter_cutoff_hz=0.05,
                                integral_min=-10000.0,
                                integral_max=10000.0)

    def test_initial_memory_is_bumpless(self):
        config = self._config()
        memory = list(config.initial_memory(50.0, 11.48))
        controller = FilteredPidController(config, memory)
        assert controller.step(50.0) == pytest.approx(11.48, abs=1e-6)

    def test_reference_regulates_integrator_plant(self):
        """Closed loop with a simple level integrator converges."""
        config = self._config()
        controller = FilteredPidController(
            config, list(config.initial_memory(40.0, 11.48)))
        level = 40.0
        inflow = 12.67
        cv = 110.4
        for _ in range(4000):
            valve = controller.step(level)
            outflow = cv * valve / 100.0
            level += (inflow - outflow) * 0.25 * 100.0 / 12000.0
            level = max(0.0, min(100.0, level))
        assert level == pytest.approx(50.0, abs=1.0)

    def test_compile_and_reference_agree_with_noise(self):
        import random

        config = self._config()
        program = config.compile("law")
        reference = FilteredPidController(config)
        interp = Interpreter()
        memory = list(reference.memory)
        rng = random.Random(3)
        for _ in range(200):
            x = 50.0 + rng.gauss(0, 2)
            expected = reference.step(x)
            memory[SLOT_INPUT] = x
            interp.execute(program, memory)
            assert memory[SLOT_OUTPUT] == pytest.approx(expected, abs=1e-9)

    def test_filtered_value_exposed(self):
        config = self._config()
        program = config.compile("law")
        interp = Interpreter()
        memory = list(config.initial_memory(50.0, 11.48))
        memory[SLOT_INPUT] = 60.0
        interp.execute(program, memory)
        assert 50.0 < memory[SLOT_FILTERED] < 60.0  # lagged


class TestPassthrough:
    def test_gain_offset(self):
        program = compile_passthrough("p", gain=2.0, offset=1.0)
        interp = Interpreter()
        memory = [0.0] * 16
        memory[SLOT_INPUT] = 10.0
        interp.execute(program, memory)
        assert memory[SLOT_OUTPUT] == pytest.approx(21.0)

    def test_program_fits_slot_budget(self):
        config = ControlLawConfig(kp=-3.0, ki=-0.01, kd=0.1, dt_sec=0.25,
                                  setpoint=50.0, filter_cutoff_hz=0.05)
        program = config.compile("law")
        # Control-law capsules must disseminate in a handful of fragments.
        assert program.size_bytes < 300
