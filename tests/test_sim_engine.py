"""Tests for the discrete-event engine and simulated-thread primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.process import Compute, SimEvent


class TestEngine:
    def test_events_fire_in_time_order(self):
        eng = Engine()
        seen = []
        eng.schedule(5, lambda: seen.append("b"))
        eng.schedule(1, lambda: seen.append("a"))
        eng.schedule(9, lambda: seen.append("c"))
        eng.run()
        assert seen == ["a", "b", "c"]
        assert eng.now == 9

    def test_equal_times_fifo(self):
        eng = Engine()
        seen = []
        for i in range(5):
            eng.schedule(3, lambda i=i: seen.append(i))
        eng.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.schedule(-1, lambda: None)

    def test_nested_scheduling(self):
        eng = Engine()
        seen = []

        def outer():
            seen.append(("outer", eng.now))
            eng.schedule(2, lambda: seen.append(("inner", eng.now)))

        eng.schedule(1, outer)
        eng.run()
        assert seen == [("outer", 1), ("inner", 3)]

    def test_max_cycles_stops_early(self):
        eng = Engine()
        seen = []
        eng.schedule(1, lambda: seen.append(1))
        eng.schedule(100, lambda: seen.append(2))
        eng.run(max_cycles=10)
        assert seen == [1]
        assert eng.pending == 1

    def test_event_budget_raises(self):
        eng = Engine()

        def forever():
            eng.schedule(1, forever)

        eng.schedule(1, forever)
        with pytest.raises(SimulationError):
            eng.run(max_events=100)


class TestSimEvent:
    def test_counting_semantics(self):
        ev = SimEvent("e", count=2)
        assert ev.try_consume()
        assert ev.try_consume()
        assert not ev.try_consume()

    def test_signal_accumulates(self):
        ev = SimEvent()
        ev.signal(3)
        assert ev.count == 3

    def test_bad_counts_rejected(self):
        with pytest.raises(SimulationError):
            SimEvent(count=-1)
        with pytest.raises(SimulationError):
            SimEvent().signal(0)


class TestOps:
    def test_compute_validates(self):
        with pytest.raises(SimulationError):
            Compute(-1)
        with pytest.raises(SimulationError):
            Compute(1, efficiency=0)
