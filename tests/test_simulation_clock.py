"""Tests for the simulated clock and the simulation trace."""

import pytest

from repro.errors import SimulationError
from repro.simulation import SimulatedClock, SimulationTrace


class TestSimulatedClock:
    def test_advance_to_never_rewinds(self):
        clock = SimulatedClock(start=2.0)
        clock.advance_to(5.0)
        assert clock.now == 5.0
        clock.advance_to(3.0)
        assert clock.now == 5.0

    def test_run_returns_the_value_and_refuses_a_suspending_coroutine(self):
        clock = SimulatedClock()

        async def finishes():
            return 42

        class Suspend:
            def __await__(self):
                yield

        async def suspends():
            await Suspend()

        assert clock.run(finishes()) == 42
        with pytest.raises(SimulationError, match="never suspends"):
            clock.run(suspends())

    def test_start_sets_the_epoch(self):
        clock = SimulatedClock(start=7)
        assert clock.now == 7.0
        assert isinstance(clock.now, float)

    def test_exceptions_propagate(self):
        clock = SimulatedClock()

        async def fails():
            clock.advance_to(3.0)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            clock.run(fails())
        assert clock.now == 3.0

    def test_refused_coroutine_is_closed(self):
        closed = []

        class Suspend:
            def __await__(self):
                yield

        async def suspends():
            try:
                await Suspend()
            finally:
                closed.append(True)

        with pytest.raises(SimulationError):
            SimulatedClock().run(suspends())
        assert closed == [True]

    def test_time_persists_across_runs(self):
        clock = SimulatedClock()

        async def step(to):
            clock.advance_to(to)
            return clock.now

        assert clock.run(step(2.5)) == 2.5
        assert clock.run(step(1.0)) == 2.5
        assert clock.run(step(4.0)) == 4.0


class TestSimulationTrace:
    def test_records_are_timestamped_and_filterable(self):
        clock = SimulatedClock()
        trace = SimulationTrace(clock)

        trace.record("start", round=1)
        clock.advance_to(3.0)
        trace.record("finish", round=1)
        trace.record("start", round=2)
        assert trace.count("start") == 2
        assert trace.count("finish") == 1
        finish = trace.of_kind("finish")[0]
        assert finish.time == 3.0
        assert finish.details["round"] == 1
