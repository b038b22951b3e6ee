"""Processes: delays, kill semantics, bad-yield teardown."""

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.process import Delay, Process


class TestDelay:
    def test_sequence_of_delays(self, engine):
        times = []

        def worker():
            for _ in range(3):
                yield Delay(100)
                times.append(engine.now)

        Process(engine, worker())
        engine.run()
        assert times == [100, 200, 300]

    def test_zero_delay_resumes_same_time(self, engine):
        times = []

        def worker():
            yield Delay(0)
            times.append(engine.now)

        Process(engine, worker())
        engine.run()
        assert times == [0]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Delay(-1)

    def test_result_captured(self, engine):
        def worker():
            yield Delay(10)
            return 42

        proc = Process(engine, worker())
        engine.run()
        assert proc.result == 42
        assert not proc.alive


class TestKill:
    def test_killed_process_stops(self, engine):
        progress = []

        def worker():
            while True:
                yield Delay(10)
                progress.append(engine.now)

        proc = Process(engine, worker())
        engine.schedule(35, proc.kill)
        engine.run()
        assert progress == [10, 20, 30]
        assert not proc.alive

    def test_bad_yield_raises(self, engine):
        def worker():
            yield "not a request"

        Process(engine, worker())
        with pytest.raises(SimulationError):
            engine.run()


class TestBadYieldCleanup:
    """An unsupported yield must tear the process down fully *before* the
    error propagates: generator closed (finally blocks run), process dead
    for good."""

    def test_bad_yield_closes_generator(self, engine):
        cleaned = []

        def worker():
            try:
                yield Delay(10)
                yield object()
            finally:
                cleaned.append(True)

        proc = Process(engine, worker())
        with pytest.raises(SimulationError):
            engine.run()
        assert cleaned == [True]
        assert not proc.alive

    def test_process_survivors_unaffected(self, engine):
        """The failing process dies; an unrelated one can keep running."""
        ticks = []

        def bad():
            yield 3.14

        def good():
            for _ in range(3):
                yield Delay(10)
                ticks.append(engine.now)

        Process(engine, good())
        Process(engine, bad())
        with pytest.raises(SimulationError):
            engine.run()
        engine.run()  # drain the survivor past the poisoned dispatch
        assert len(ticks) >= 1


class TestGenerationGuard:
    """The resume-token fast path: stale resumes are inert no-ops."""

    def test_kill_mid_delay_leaves_stale_event_inert(self, engine):
        progress = []

        def worker():
            while True:
                yield Delay(10)
                progress.append(engine.now)

        proc = Process(engine, worker())
        engine.schedule(25, proc.kill)
        dispatched = engine.run()
        assert progress == [10, 20]
        assert not proc.alive
        # The stale resume dispatched as a no-op instead of resuming.
        assert dispatched >= 4

    def test_reused_delay_instance(self, engine):
        """A single Delay object re-yielded every lap (the benchmark and
        several MAC loops do this) arms a fresh generation each time."""
        laps = []
        wait = Delay(7)

        def worker():
            for _ in range(5):
                yield wait
                laps.append(engine.now)

        Process(engine, worker())
        engine.run()
        assert laps == [7, 14, 21, 28, 35]
