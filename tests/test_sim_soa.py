"""Flat-core specifics: selection, live thread state, windowed runs.

The cross-core bit-identity contract itself is pinned by
``test_sim_batched_equivalence.py`` and ``test_sim_difftest.py``; this
module covers core selection defaults, per-thread state the batched
core reads live rather than from columns sized at run entry (threads
registered and bindings changed while it drains), and
:meth:`SimMachine.run_window` (the adaptive controller's epoch
primitive) agreeing with a one-shot run on both cores, including
bindings changed between windows, outside ``engine.schedule_at``
callbacks and a mid-bucket budget stop.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.simcore

from repro.errors import SimulationError
from repro.sim import Compute, SimMachine, Spawn, Touch, Wait, YieldCPU
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
    def test_auto_resolves_to_soa(self):
        # The default core. The name predates the removal of the
        # struct-of-arrays core and of the ``auto`` value; the default
        # is now the batched core.
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
    thread registered from generator code joins the run, and a binding
    changed from generator code reaches the next placement decision."""

    def test_batched_core_allows_mid_run_registration(self):
        m = SimMachine(smp12e5(), core="batched")

        def parent():
            yield Compute(1e4)
            late = m.add_thread("late", child(), start=False)
            yield Spawn(late)

        def child():
            yield Compute(1e4)

        m.add_thread("parent", parent(), cpuset=Bitmap.single(0))
        m.run()
        assert [t.state for t in m.threads] == ["done", "done"]

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
        # the epoch boundary, so an outside callback stamped inside the
        # window that already ran is rejected, not run out of order.
        m = mixed_machine("batched")
        m.run_window(1e13)  # everything completes well before this
        assert m.engine.now == 1e13
        with pytest.raises(SimulationError, match="in the past"):
            m.engine.schedule_at(1e12, lambda: None)

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
    def _outside_traffic(core: str, step: float) -> tuple:
        # Before each window, outside callbacks go on the engine at the
        # window's horizon and in its middle; one of them unbinds a
        # bound thread. Each callback logs what it sees of the run.
        m = mixed_machine(core)
        log = []

        def probe(tag):
            eng = m.engine
            log.append((tag, eng.now, eng.events_processed,
                        [t.state for t in m.threads]))

        def unbind():
            m.bind_thread(m.threads[4], None)
            probe("unbind")

        pending = []
        horizon = 0.0
        for k in range(40):
            m.engine.schedule_at(horizon + step / 2,
                                 unbind if k == 10 else lambda: probe("mid"))
            horizon += step
            m.engine.schedule_at(horizon, lambda: probe("edge"))
            m.run_window(horizon)
            pending.append(m.pending)
        m.run_window(1e13)
        assert m.threads[4].cpuset is None
        return fingerprint(m)[1:], log, pending

    def test_outside_traffic_between_windows_agrees_across_cores(self):
        one = mixed_machine("batched")
        one.run()
        step = one.elapsed_cycles / 40
        obj, bat = (self._outside_traffic(core, step)
                    for core in ("object", "batched"))
        assert obj[0] == bat[0]  # fingerprints
        assert obj[1] == bat[1]  # what the callbacks saw
        assert obj[2] == bat[2]  # events in flight after every window
        assert max(bat[2]) > 0

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
