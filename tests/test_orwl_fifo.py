"""Unit tests for ORWL locations, FIFOs, handles and sections."""

import pytest

from repro.errors import HandleStateError, ORWLError, ScheduleError
from repro.orwl import Runtime, section
from repro.orwl.location import Location, LocationFIFO, Request
from repro.sim.process import Compute, SimEvent
from repro.topology import fig2_machine


class _FakeHandle:
    """Minimal stand-in so FIFO mechanics can be tested in isolation."""

    def __init__(self, name="h"):
        self.op = type("Op", (), {"name": name})()
        self.event = SimEvent(name)


def make_request(mode, name="h"):
    return Request(_FakeHandle(name), mode)


class TestLocationFIFO:
    def test_writer_is_exclusive(self):
        fifo = LocationFIFO("l")
        w1, w2 = make_request("w"), make_request("w")
        fifo.insert(w1)
        fifo.insert(w2)
        activated = fifo.advance()
        assert activated == [w1]
        assert w1.active and not w2.active
        assert w1.handle.event.count == 1

    def test_adjacent_readers_coalesce(self):
        fifo = LocationFIFO("l")
        rs = [make_request("r", f"r{i}") for i in range(3)]
        w = make_request("w")
        for r in rs:
            fifo.insert(r)
        fifo.insert(w)
        activated = fifo.advance()
        assert activated == rs
        assert all(r.active for r in rs)
        assert not w.active

    def test_reader_group_blocks_writer_until_all_release(self):
        fifo = LocationFIFO("l")
        r1, r2, w = make_request("r"), make_request("r"), make_request("w")
        for req in (r1, r2, w):
            fifo.insert(req)
        fifo.advance()
        fifo.release(r1)
        assert fifo.advance() == []  # r2 still active
        fifo.release(r2)
        assert fifo.advance() == [w]

    def test_release_requires_active(self):
        fifo = LocationFIFO("l")
        r = make_request("r")
        fifo.insert(r)
        with pytest.raises(HandleStateError):
            fifo.release(r)

    def test_advance_noop_when_active(self):
        fifo = LocationFIFO("l")
        w1, w2 = make_request("w"), make_request("w")
        fifo.insert(w1)
        fifo.insert(w2)
        fifo.advance()
        assert fifo.advance() == []

    def test_writer_then_readers_alternation(self):
        fifo = LocationFIFO("l")
        w = make_request("w")
        r = make_request("r")
        fifo.insert(w)
        fifo.insert(r)
        assert fifo.advance() == [w]
        fifo.release(w)
        # handle2 semantics: next-iteration write inserted before advance
        w2 = make_request("w")
        fifo.insert(w2)
        assert fifo.advance() == [r]
        fifo.release(r)
        assert fifo.advance() == [w2]


class TestLocation:
    def test_scale_sets_size_once(self):
        loc = Location(0, "l", owner=None)
        loc.scale(1024)
        assert loc.size == 1024
        with pytest.raises(ORWLError):
            loc.scale(0)

    def test_scale_after_materialize_rejected(self):
        loc = Location(0, "l", owner=None, size=8)
        loc.buffer = object()
        with pytest.raises(ORWLError):
            loc.scale(16)


class TestRuntimeDeclaration:
    def test_task_and_location_creation(self):
        rt = Runtime(fig2_machine(), affinity=False)
        t = rt.task("a")
        loc = t.location("out", 64)
        assert loc.size == 64
        assert loc.owner is t.main_op
        assert rt.locations == [loc]

    def test_duplicate_body_rejected(self):
        rt = Runtime(fig2_machine(), affinity=False)
        t = rt.task("a")
        t.set_body(lambda op: None)
        with pytest.raises(ORWLError):
            t.set_body(lambda op: None)

    def test_schedule_requires_bodies(self):
        rt = Runtime(fig2_machine(), affinity=False)
        t = rt.task("a")
        t.location("out", 64)  # creates main op without body
        with pytest.raises(ScheduleError):
            rt.schedule()

    def test_schedule_requires_sizes(self):
        rt = Runtime(fig2_machine(), affinity=False)
        t = rt.task("a")
        loc = t.main_op.location("out")  # unscaled
        t.set_body(lambda op: None)
        assert loc.size == 0
        with pytest.raises(ScheduleError):
            rt.schedule()

    def test_no_declarations_after_schedule(self):
        rt = Runtime(fig2_machine(), affinity=False)
        t = rt.task("a")
        loc = t.location("out", 8)
        t.write_handle(loc)
        t.set_body(lambda op: None)
        rt.schedule()
        with pytest.raises(ScheduleError):
            rt.task("b")
        with pytest.raises(ScheduleError):
            t.read_handle(loc)

    def test_schedule_twice_rejected(self):
        rt = Runtime(fig2_machine(), affinity=False)
        t = rt.task("a")
        t.set_body(lambda op: None)
        rt.schedule()
        with pytest.raises(ScheduleError):
            rt.schedule()

    def test_empty_program_rejected(self):
        rt = Runtime(fig2_machine(), affinity=False)
        with pytest.raises(ScheduleError):
            rt.schedule()


class TestHandleProtocol:
    def test_acquire_before_schedule_fails(self):
        rt = Runtime(fig2_machine(), affinity=False)
        t = rt.task("a")
        loc = t.location("out", 8)
        h = t.write_handle(loc)
        gen = h.acquire()
        with pytest.raises(HandleStateError):
            next(gen)

    def test_release_without_acquire_fails(self):
        rt = Runtime(fig2_machine(), affinity=False)
        t = rt.task("a")
        loc = t.location("out", 8)
        h = t.write_handle(loc)
        with pytest.raises(HandleStateError):
            h.release()

    def test_touch_requires_held(self):
        rt = Runtime(fig2_machine(), affinity=False)
        t = rt.task("a")
        loc = t.location("out", 8)
        h = t.write_handle(loc)
        with pytest.raises(HandleStateError):
            h.touch()

    def test_store_requires_write_mode(self):
        rt = Runtime(fig2_machine(), affinity=False)
        t = rt.task("a")
        loc = t.location("out", 8)
        hr = t.read_handle(loc)
        hr.held = True
        with pytest.raises(HandleStateError):
            hr.store(42)

    def test_bad_mode_rejected(self):
        from repro.orwl.handle import Handle

        rt = Runtime(fig2_machine(), affinity=False)
        t = rt.task("a")
        loc = t.location("out", 8)
        with pytest.raises(HandleStateError):
            Handle(t.main_op, loc, "x")

    def test_non_iterative_handle_single_use(self):
        rt = Runtime(fig2_machine(), affinity=False)
        t = rt.task("a")
        loc = t.location("out", 8)
        h = t.write_handle(loc)  # not iterative
        seen = []

        def body(op):
            yield from h.acquire()
            h.release()
            seen.append(h.current_request)

        t.set_body(body)
        rt.run()
        assert seen == [None]


class TestSectionHelper:
    def test_section_acquires_and_releases(self):
        rt = Runtime(fig2_machine(), affinity=False)
        t = rt.task("a")
        loc = t.location("out", 64)
        h = t.write_handle(loc, iterative=True)
        states = []

        def inner():
            states.append(h.held)
            yield Compute(10.0)

        def body(op):
            yield from section(h, inner())
            states.append(h.held)

        t.set_body(body)
        rt.run()
        assert states == [True, False]

    def test_section_nested_handles_release_in_reverse(self):
        rt = Runtime(fig2_machine(), affinity=False)
        t = rt.task("a")
        l1, l2 = t.location("x", 8), t.location("y", 8)
        h1 = t.write_handle(l1, iterative=True)
        h2 = t.write_handle(l2, iterative=True)

        def body(op):
            yield from section([h1, h2], iter([Compute(1.0)]))
            assert not h1.held and not h2.held

        t.set_body(body)
        rt.run()
