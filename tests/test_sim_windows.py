"""Batched-core specifics: selection, live thread state, windowed runs.

The cross-core bit-identity contract itself is pinned by
``test_sim_batched_equivalence.py`` and ``test_sim_difftest.py``; this
module covers the default core, per-thread state the batched core reads
live rather than from columns sized at run entry (bindings changed while
it drains), the batched core's refusal of engine callbacks, and
:meth:`SimMachine.run_window` (the adaptive controller's epoch
primitive) agreeing with a one-shot run on both cores, including
bindings changed and events signalled between windows and a mid-bucket
budget stop.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.simcore

from repro.errors import SimulationError
from repro.sim import Compute, SimMachine, Touch, Wait, YieldCPU
from repro.topology import smp12e5
from repro.util.bitmap import Bitmap


def mixed_machine(core: str | None = None, *, seed: int = 3,
                  threads: int = 16):
    """Bound + unbound threads with waits, yields and multi-quantum
    computes — crosses the busy-completion drain, the op pump, and the
    wakeup paths in one workload. ``core=None`` keeps the default."""
    kwargs = {} if core is None else {"core": core}
    m = SimMachine(smp12e5(), seed=seed, **kwargs)
    bufs = [m.allocate(1 << 15, f"b{i}") for i in range(threads)]
    evs = [m.event(f"e{i}") for i in range(threads)]

    def worker(i):
        for r in range(4):
            yield Compute(3e7)
            yield Touch(bufs[i], 8192, write=(i % 2 == 0))
            if i % 3 == 0:
                yield YieldCPU()
            evs[i].signal()
            if i:
                yield Wait(evs[i - 1])

    for i in range(threads):
        cpuset = Bitmap.single(2 * i) if i % 2 == 0 else None
        m.add_thread(f"w{i}", worker(i), cpuset=cpuset)
    return m


def fingerprint(m: SimMachine) -> tuple:
    return (
        m.elapsed_cycles,
        m.engine.events_processed,
        m.total_counters().snapshot(),
        [t.state for t in m.threads],
        [t.slices_run for t in m.threads],
        [t.slice_used for t in m.threads],
    )


class TestCoreSelection:
    def test_default_core_is_batched(self):
        assert SimMachine.CORES == ("batched", "object")
        m = mixed_machine()
        assert m.core_used is None  # nothing ran yet
        m.run()
        assert m.core_used == "batched"

    def test_explicit_cores_honoured(self):
        for core in ("batched", "object"):
            m = mixed_machine(core)
            m.run()
            assert m.core_used == core


class TestPreallocatedColumns:
    """The batched core sizes no per-thread columns at run entry: a
    binding changed from generator code reaches the next placement
    decision."""

    @staticmethod
    def _rebind_mid_run(core: str) -> tuple:
        # A lockstep gang of bound multi-quantum computes shares every
        # quantum-boundary bucket; a peer unbinds one gang member
        # mid-run, and the next boundary must read the new binding.
        m = SimMachine(smp12e5(), core=core)
        gang = []

        def rebinder():
            yield Compute(3e7)
            m.bind_thread(gang[5], None)  # unbind mid-run
            yield Compute(3e7)

        def worker():
            for _ in range(4):
                yield Compute(2e8)

        m.add_thread("rebinder", rebinder(), cpuset=Bitmap.single(1))
        for i in range(20):
            gang.append(
                m.add_thread(f"w{i}", worker(), cpuset=Bitmap.single(2 * i))
            )
        m.run()
        assert {t.state for t in m.threads} == {"done"}
        assert gang[5].cpuset is None
        return fingerprint(m) + ([t.pu for t in m.threads],)

    def test_bound_column_follows_rebind(self):
        # Had the batched core snapshotted the binding at run entry, the
        # unbound thread would skip the rebalance path and the cores
        # would part ways.
        assert self._rebind_mid_run("batched") == \
            self._rebind_mid_run("object")


def run_in_windows(m: SimMachine, step: float, n: int = 40) -> list[int]:
    """Drain *m* in *n* windows of *step* cycles, then to completion;
    returns :attr:`SimMachine.pending` after each of the *n* windows."""
    pending = []
    horizon = 0.0
    for _ in range(n):
        horizon += step
        m.run_window(horizon)
        pending.append(m.pending)
    m.run_window(1e13)
    return pending


class TestRunWindow:
    @pytest.mark.parametrize("core", ["object", "batched"])
    def test_windowed_equals_one_shot(self, core):
        one = mixed_machine(core)
        one.run()

        win = mixed_machine(core)
        # Forty windows across the run slice straight through in-flight
        # busy chunks and wakeups, which the next window must resume.
        pending = run_in_windows(win, one.elapsed_cycles / 40)
        assert max(pending) > 0

        # The windowed clock lands on the final horizon (by design: a
        # window's end time is the epoch boundary), so compare
        # everything *but* the clock bit-for-bit.
        assert fingerprint(win)[1:] == fingerprint(one)[1:]
        assert win.elapsed_cycles == 1e13
        assert win.pending == 0

    def test_window_cannot_go_backwards(self):
        m = mixed_machine("batched")
        m.run_window(1e9)
        with pytest.raises(SimulationError, match="before now"):
            m.run_window(1e8)

    def test_window_advances_clock_to_horizon(self):
        # Even a drained machine reports the horizon: machine time is
        # the epoch boundary.
        m = mixed_machine("batched")
        m.run_window(1e13)  # everything completes well before this
        assert m.engine.now == 1e13

    @staticmethod
    def _start(m: SimMachine, how: str) -> None:
        if how == "window":
            m.run_window(1e6)
        elif how == "run":
            m.run()
        else:
            # A window stopped by its event budget has started the run
            # too: the stopped threads resume from where they are.
            with pytest.raises(SimulationError, match="event budget"):
                m.run_window(1e13, max_events=10)

    @pytest.mark.parametrize("how", ["window", "run", "budget-stop"])
    def test_add_thread_after_the_run_started_raises(self, how):
        for core in SimMachine.CORES:
            m = mixed_machine(core)
            self._start(m, how)
            with pytest.raises(SimulationError,
                               match="after the run has started"):
                m.add_thread("late", iter([Compute(1e4)]))
            assert len(m.threads) == 16

    def test_window_respects_event_budget(self):
        m = mixed_machine("batched")
        with pytest.raises(SimulationError, match="event budget"):
            for _ in range(1000):
                m.run_window(m.engine.now + 3e8, max_events=10)

    def test_observer_folds_once_after_last_window(self):
        from repro.sim.observe import SimObserver

        one = mixed_machine("batched")
        obs_one = SimObserver()
        one.attach_observer(obs_one)
        one.run()

        win = mixed_machine("batched")
        obs_win = SimObserver()
        win.attach_observer(obs_win)
        assert max(run_in_windows(win, one.elapsed_cycles / 40)) > 0
        obs_win.fold(win)

        def strip_windowing(snap):
            # Clock-derived gauges (elapsed, per-PU idle = horizon -
            # busy) legitimately track the final window horizon, and the
            # queue-depth histogram gets one extra sample per window
            # re-dispatch; everything else must fold identically.
            return {
                k: v for k, v in snap.items()
                if k != "sim_elapsed_cycles"
                and k != "sim_sched_queue_depth"
                and not k.startswith("sim_pu_idle_cycles")
            }

        assert strip_windowing(obs_win.snapshot()) == \
            strip_windowing(obs_one.snapshot())

    @staticmethod
    def _signal_between_windows(core: str) -> tuple:
        # Waiters on PUs 0 and 2, compute spinners on their hyperthread
        # siblings 1 and 3. The first window ends with both waiters
        # blocked; the event is signalled between the windows, so both
        # wake at the horizon and contend with the spinners from there.
        m = SimMachine(smp12e5(), seed=3, core=core)
        go = m.event("go")

        def waiter():
            yield Wait(go)
            for _ in range(4):
                yield Compute(3e7)

        def spinner():
            for _ in range(6):
                yield Compute(3e7)

        for pu in range(4):
            body = spinner() if pu % 2 else waiter()
            m.add_thread(f"t{pu}", body, cpuset=Bitmap.single(pu))
        m.run_window(1e6)
        assert [t.state for t in m.threads] == ["blocked", "running"] * 2
        if core == "batched":
            # The wakeups go into the batched core's own calendar and
            # are drained there, never through an object-path method.
            def object_path(*args):
                raise AssertionError("the batched core ran the object path")

            m._drain_event = m._step = m._dispatch = object_path
        go.signal(2)
        m.run_window(1e13)
        assert {t.state for t in m.threads} == {"done"}
        return fingerprint(m)[1:] + (m.window_drained_at,)

    def test_signal_between_windows_agrees_across_cores(self):
        assert self._signal_between_windows("object") == \
            self._signal_between_windows("batched")

    @staticmethod
    def _signal_ahead_of_waiters(core: str, *, between: bool) -> tuple:
        # A regression pin for the no-waiter half of the between-window
        # signal path. The first window ends while the four threads still
        # compute, so a signal between the windows finds no waiter: the
        # count stays on the event, nothing is queued, and two Waits later
        # in the run pass without blocking, as if the event had been
        # created signalled.
        m = SimMachine(smp12e5(), seed=3, core=core)
        go = m.event("go", 0 if between else 2)
        blocked = []

        def worker(i):
            yield Compute(3e7)
            if i % 2 == 0:
                blocked.append(go.count == 0)
                yield Wait(go)
            yield Compute(3e7)

        for pu in range(4):
            m.add_thread(f"t{pu}", worker(pu), cpuset=Bitmap.single(pu))
        m.run_window(1e6)
        assert {t.state for t in m.threads} == {"running"}
        if between:
            if core == "batched":
                def object_path(*args):
                    raise AssertionError("the batched core ran the object path")

                m._drain_event = m._step = m._dispatch = object_path
            pending = m.pending
            go.signal(2)
            assert m.pending == pending
        m.run_window(1e13)
        assert {t.state for t in m.threads} == {"done"}
        assert blocked == [False, False] and go.count == 0
        return fingerprint(m)[1:] + (m.window_drained_at,)

    def test_signal_without_waiters_between_windows_agrees_across_cores(self):
        between = self._signal_ahead_of_waiters("object", between=True)
        assert between == self._signal_ahead_of_waiters("batched",
                                                        between=True)
        # With no waiter to wake the signal queues no event, so events,
        # counters, states and the drain point all match a run whose
        # event starts signalled.
        assert between == self._signal_ahead_of_waiters("object",
                                                        between=False)

    def test_budget_raise_mid_bucket_keeps_events_in_flight(self):
        # The sixteen threads start in one calendar bucket, so a budget
        # of ten events stops the batched core inside it. Both cores
        # must leave the same events in flight and resume from them.
        one = mixed_machine("object")
        one.run()
        for core in ("object", "batched"):
            m = mixed_machine(core)
            with pytest.raises(SimulationError, match="event budget"):
                m.run_window(1e13, max_events=10)
            assert m.engine.events_processed == 10
            assert m.pending == 16
            m.run_window(1e13)
            assert fingerprint(m)[1:] == fingerprint(one)[1:]
            assert m.pending == 0


class TestOwnCalendar:
    """The batched core drains only its own calendar: a callback on
    ``machine.engine`` would never run there, so a window that starts or
    ends with one raises."""

    def test_callback_before_the_run_raises(self):
        m = mixed_machine("batched")
        m.engine.schedule(0.0, lambda: None)
        with pytest.raises(SimulationError,
                           match="1 callback.*on machine.engine"):
            m.run()
        # Refused up front: no event ran and no thread started.
        assert m.engine.events_processed == 0
        assert {t.state for t in m.threads} == {"new"}

    def test_callback_from_a_thread_raises_at_window_end(self):
        m = SimMachine(smp12e5(), core="batched")
        ran = []

        def body():
            yield Compute(1e4)
            m.engine.schedule(0.0, lambda: ran.append(True))
            yield Compute(1e4)

        m.add_thread("t", body(), cpuset=Bitmap.single(0))
        with pytest.raises(SimulationError,
                           match="1 callback.*on machine.engine"):
            m.run_window(1e13)
        assert m.threads[0].state == "done"
        assert ran == []


class TestBetweenWindowRebind:
    """The adaptive controller's live-rebind path: ``bind_thread``
    between ``run_window`` epochs, with no generator involvement."""

    @staticmethod
    def _long_machine(core: str) -> SimMachine:
        m = SimMachine(smp12e5(), core=core)

        def worker(i):
            # The yield forces a real redispatch per chunk, so a later
            # rebind always has placements left to move.
            for _ in range(24):
                yield Compute(3e7)
                yield YieldCPU()

        for i in range(4):
            m.add_thread(f"w{i}", worker(i), cpuset=Bitmap.single(2 * i))
        return m

    @staticmethod
    def _drain(m: SimMachine, rebind_to: Bitmap | None) -> SimMachine:
        m.run_window(1.5e8)
        if rebind_to is not None:
            # Between epochs the rebind goes through thread.cpuset and
            # must be picked up by the next window's placements.
            m.bind_thread(m.threads[1], rebind_to)
            assert m.threads[1].cpuset == rebind_to
        horizon = 3e8
        for _ in range(10):
            m.run_window(horizon)
            horizon += 1.5e8
        m.run_window(1e13)
        assert {t.state for t in m.threads} == {"done"}
        return m

    def test_rebind_onto_occupied_pu_contends(self):
        # Moving w1 (PU 2) onto w2's PU 4 forces the two to timeshare:
        # the drain point must move out vs the undisturbed run — proof
        # the new binding is enforced, not just recorded.
        free = self._drain(self._long_machine("batched"), None)
        packed = self._drain(self._long_machine("batched"), Bitmap.single(4))
        assert packed.window_drained_at > free.window_drained_at
        assert packed.threads[1].cpuset == Bitmap.single(4)

    def test_rebind_agrees_across_cores(self):
        prints = []
        for core in ("object", "batched"):
            m = self._drain(self._long_machine(core), Bitmap.single(4))
            prints.append(fingerprint(m)[1:])  # clock sits on the horizon
        assert prints[0] == prints[1]

    def test_rebind_of_queued_thread_agrees_across_cores(self):
        # When the first window ends, b waits behind a for PU 0. Rebound
        # to the idle PU 4, it starts at the next window's dispatch on
        # both cores, not after a's quantum.
        def run(core):
            m = SimMachine(smp12e5(), seed=3, core=core)

            def worker():
                for _ in range(3):
                    yield Compute(3e7)

            m.add_thread("a", worker(), cpuset=Bitmap.single(0))
            b = m.add_thread("b", worker(), cpuset=Bitmap.single(0))
            m.run_window(1e6)
            assert b.state == "ready"
            m.bind_thread(b, Bitmap.single(4))
            m.run_window(1e13)
            assert b.last_pu == 4
            return fingerprint(m)[1:] + (m.window_drained_at,)

        obj = run("object")
        assert obj == run("batched")
        # b ran beside a: the drain point is one thread's work, not two.
        assert obj[-1] < 6e7

    def test_unbind_between_windows_frees_thread(self):
        bound = self._drain(self._long_machine("batched"), None)

        def loose_run(core):
            loose = self._long_machine(core)
            loose.run_window(1.5e8)
            loose.bind_thread(loose.threads[1], None)
            assert loose.threads[1].cpuset is None
            horizon = 3e8
            for _ in range(10):
                loose.run_window(horizon)
                horizon += 1.5e8
            loose.run_window(1e13)
            assert {t.state for t in loose.threads} == {"done"}
            return loose

        # The freed thread falls back to the seeded OS-scheduler policy
        # (migration costs included), so its schedule — and hence the
        # drain point — must diverge from the pinned run: unbinding is
        # enforced, not just recorded. And it stays deterministic and
        # core-independent.
        prints = [fingerprint(loose_run(c))[1:]
                  for c in ("object", "batched")]
        assert prints[0] == prints[1]
        assert prints[-1] != fingerprint(bound)[1:]
