"""Hardware models: MCU memory, radio energy, battery, sensors, node."""

import random

import pytest

from repro.hardware.battery import Battery, BatteryDepleted, BatterySpec
from repro.hardware.mcu import Mcu, McuSpec, MemoryExhausted
from repro.hardware.node import FireFlyNode, NodePosition
from repro.hardware.radio import Radio, RadioSpec, RadioState
from repro.hardware.sensors import SensorDisabled, standard_sensor_suite
from repro.sim.clock import MS, SEC


class TestMcu:
    def test_firefly_defaults(self):
        mcu = Mcu()
        assert mcu.spec.ram_bytes == 8 * 1024
        assert mcu.spec.rom_bytes == 128 * 1024

    def test_cycle_time_conversion(self):
        mcu = Mcu()
        # 7372800 cycles = 1 second
        assert mcu.cycles_to_ticks(7_372_800) == SEC
        assert mcu.cycles_to_ticks(0) == 0
        assert mcu.cycles_to_ticks(1) == 1  # rounds up to a tick

    def test_ticks_to_cycles_roundtrip_scale(self):
        mcu = Mcu()
        assert mcu.ticks_to_cycles(SEC) == 7_372_800

    def test_execute_accounts(self):
        mcu = Mcu()
        mcu.execute(1000)
        mcu.execute(500)
        assert mcu.cycles_executed == 1500

    def test_ram_allocation(self):
        mcu = Mcu()
        mcu.ram.allocate("stack:a", 1024)
        assert mcu.ram.used == 1024
        assert mcu.ram.free == 8 * 1024 - 1024

    def test_ram_exhaustion(self):
        mcu = Mcu()
        with pytest.raises(MemoryExhausted):
            mcu.ram.allocate("huge", 9 * 1024)

    def test_duplicate_region_rejected(self):
        mcu = Mcu()
        mcu.ram.allocate("x", 10)
        with pytest.raises(ValueError):
            mcu.ram.allocate("x", 10)

    def test_release_frees(self):
        mcu = Mcu()
        mcu.ram.allocate("x", 4096)
        mcu.ram.release("x")
        assert mcu.ram.free == 8 * 1024

    def test_resize(self):
        mcu = Mcu()
        mcu.rom.allocate("capsule:pid", 100)
        mcu.rom.resize("capsule:pid", 200)
        assert mcu.rom.used == 200
        with pytest.raises(KeyError):
            mcu.rom.resize("missing", 10)


class TestBattery:
    def test_draw_integrates_charge(self, engine):
        battery = Battery(engine)
        battery.draw(1.0, SEC)  # 1 A for 1 s = 1 C
        assert battery.charge_drawn == pytest.approx(1.0)

    def test_remaining_fraction(self, engine):
        spec = BatterySpec(capacity_coulombs=100.0)
        battery = Battery(engine, spec)
        battery.draw(1.0, 50 * SEC)
        assert battery.remaining_fraction == pytest.approx(0.5)

    def test_depletion_flag(self, engine):
        battery = Battery(engine, BatterySpec(capacity_coulombs=1.0))
        battery.draw(1.0, 2 * SEC)
        assert battery.depleted

    def test_depletion_raise(self, engine):
        battery = Battery(engine, BatterySpec(capacity_coulombs=1.0),
                          raise_when_empty=True)
        with pytest.raises(BatteryDepleted):
            battery.draw(1.0, 2 * SEC)

    def test_solar_offsets_draw(self, engine):
        spec = BatterySpec(capacity_coulombs=100.0, solar_current_a=0.5)
        battery = Battery(engine, spec)
        battery.draw(1.0, SEC)
        assert battery.charge_drawn == pytest.approx(0.5)

    def test_lifetime_projection(self, engine):
        battery = Battery(engine)
        engine.schedule(SEC, lambda: battery.draw(1e-3, SEC))
        engine.run()
        # 1 mA average over 1 s window
        years = battery.projected_lifetime_years()
        expected_hours = (battery.spec.capacity_coulombs / 1e-3) / 3600.0
        assert years == pytest.approx(expected_hours / (24 * 365.25),
                                      rel=1e-6)

    def test_no_draw_infinite_lifetime(self, engine):
        assert Battery(engine).projected_lifetime_years() == float("inf")

    def test_negative_rejected(self, engine):
        battery = Battery(engine)
        with pytest.raises(ValueError):
            battery.draw(-1.0, 10)
        with pytest.raises(ValueError):
            battery.draw(1.0, -10)


class TestRadio:
    def test_starts_off(self, engine):
        battery = Battery(engine)
        radio = Radio(engine, battery)
        assert radio.state is RadioState.OFF

    def test_airtime_matches_bitrate(self, engine):
        radio = Radio(engine, Battery(engine))
        # 6-byte PHY header + 25 bytes = 31 bytes = 248 bits at 250 kbps
        assert radio.airtime(25) == (31 * 8 * SEC) // 250_000

    def test_state_time_accounting(self, engine):
        battery = Battery(engine)
        radio = Radio(engine, battery)
        radio.set_state(RadioState.RX)
        engine.schedule(10 * MS, radio.set_state, RadioState.OFF)
        engine.run()
        assert radio.state_time(RadioState.RX) == 10 * MS

    def test_rx_draws_more_than_off(self, engine):
        def run_with(state):
            eng = type(engine)()
            battery = Battery(eng)
            radio = Radio(eng, battery)
            radio.set_state(state)
            eng.schedule(SEC, radio.set_state, RadioState.OFF)
            eng.run()
            radio._settle()
            return battery.charge_drawn

        assert run_with(RadioState.RX) > run_with(RadioState.OFF) * 100

    def test_duty_cycle(self, engine):
        radio = Radio(engine, Battery(engine))
        radio.set_state(RadioState.RX)
        engine.schedule(100 * MS, radio.set_state, RadioState.OFF)
        engine.schedule(1000 * MS, lambda: None)
        engine.run()
        assert radio.duty_cycle() == pytest.approx(0.1, abs=0.01)


class TestSensors:
    def test_suite_has_all_six(self, engine):
        suite = standard_sensor_suite(engine, Battery(engine))
        assert sorted(suite) == ["accel", "audio", "light", "pir",
                                 "temperature", "voltage"]

    def test_sample_tracks_environment(self, engine):
        suite = standard_sensor_suite(engine, Battery(engine),
                                      random.Random(1))
        sensor = suite["temperature"]
        sensor.attach_environment(lambda t: 25.0)
        readings = [sensor.sample() for _ in range(50)]
        assert abs(sum(readings) / 50 - 25.0) < 0.2

    def test_sample_clamped_to_range(self, engine):
        suite = standard_sensor_suite(engine, Battery(engine))
        sensor = suite["pir"]
        sensor.attach_environment(lambda t: 99.0)
        assert sensor.sample() == 1.0

    def test_disabled_sensor_raises(self, engine):
        suite = standard_sensor_suite(engine, Battery(engine))
        sensor = suite["light"]
        sensor.disable()
        with pytest.raises(SensorDisabled):
            sensor.sample()
        sensor.enable()
        sensor.sample()

    def test_sampling_costs_energy(self, engine):
        battery = Battery(engine)
        suite = standard_sensor_suite(engine, battery)
        before = battery.charge_drawn
        suite["audio"].sample()
        assert battery.charge_drawn > before


class TestNode:
    def test_composition(self, engine):
        node = FireFlyNode(engine, "x", position=NodePosition(3.0, 4.0))
        assert node.node_id == "x"
        assert node.position.distance_to(NodePosition(0, 0)) == 5.0
        assert node.mcu.spec.name == "ATmega1281"
        assert len(node.sensors) == 6

    def test_without_sensors(self, engine):
        node = FireFlyNode(engine, "x", with_sensors=False)
        assert node.sensors == {}
        with pytest.raises(KeyError):
            node.sensor("light")

    def test_default_rng_is_made_on_first_read(self, engine):
        node = FireFlyNode(engine, "x", with_sensors=False)
        assert not [value for value in vars(node).values()
                    if isinstance(value, random.Random)]
        reference = random.Random(0)
        assert [node.rng.random() for _ in range(3)] == \
            [reference.random() for _ in range(3)]
        assert node.rng is node.rng

    def test_given_rng_is_kept(self, engine):
        rng = random.Random(7)
        node = FireFlyNode(engine, "x", rng=rng)
        assert node.rng is rng

    def test_fail_turns_radio_off(self, engine):
        node = FireFlyNode(engine, "x")
        node.radio.set_state(RadioState.RX)
        node.fail()
        assert node.failed
        assert node.radio.state is RadioState.OFF
        node.recover()
        assert not node.failed
