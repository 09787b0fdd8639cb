"""Flat-core specifics: selection, live thread state, windowed runs.

The cross-core bit-identity contract itself is pinned by
``test_sim_batched_equivalence.py`` and ``test_sim_difftest.py``; this
module covers core selection defaults, per-thread state the batched
core reads live rather than from columns sized at run entry (threads
registered and bindings changed while it drains), and
:meth:`SimMachine.run_window` (the shard-protocol epoch primitive)
agreeing with a one-shot run on both cores, including bindings changed
between windows.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.simcore

from repro.errors import SimulationError
from repro.sim import Compute, SimMachine, Spawn, Touch, Wait, YieldCPU
from repro.topology import smp12e5
from repro.util.bitmap import Bitmap


def mixed_machine(core: str, *, seed: int = 3, threads: int = 16):
    """Bound + unbound threads with waits, yields and multi-quantum
    computes — crosses the vectorized drain, the scalar pump, and the
    wakeup paths in one workload."""
    m = SimMachine(smp12e5(), seed=seed, core=core)
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
        # ``auto`` picks the fastest flat core. The struct-of-arrays
        # core this test is named for was removed, so that is now the
        # batched core.
        m = mixed_machine("auto")
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
        # A lockstep gang of bound multi-quantum computes opens every
        # quantum-boundary bucket with a run long enough for the
        # vectorized batch, whose eligibility reads thread.cpuset live;
        # a peer unbinds one gang member mid-run.
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
        # unbound thread would stay in the vectorized batch (which skips
        # the rebalance path) and the cores would part ways.
        assert self._rebind_mid_run("batched") == \
            self._rebind_mid_run("object")


class TestRunWindow:
    @pytest.mark.parametrize("core", ["object", "batched"])
    def test_windowed_equals_one_shot(self, core):
        one = mixed_machine(core)
        one.run()

        win = mixed_machine(core)
        horizon = 0.0
        # Small windows slice straight through in-flight busy chunks,
        # forcing the leftover-event shim conversion at every boundary.
        for _ in range(40):
            horizon += 3e8
            win.run_window(horizon)
        win.run_window(1e13)

        # The windowed clock lands on the final horizon (by design: a
        # window's end time is the epoch boundary), so compare
        # everything *but* the clock bit-for-bit.
        assert fingerprint(win)[1:] == fingerprint(one)[1:]
        assert win.elapsed_cycles == 1e13

    def test_window_cannot_go_backwards(self):
        m = mixed_machine("batched")
        m.run_window(1e9)
        with pytest.raises(SimulationError, match="before now"):
            m.run_window(1e8)

    def test_window_advances_clock_to_horizon(self):
        # Even a drained machine reports the horizon: the shard protocol
        # equates machine time with the epoch boundary so messages
        # stamped inside (T_{k-1}, T_k] are always schedulable.
        m = mixed_machine("batched")
        m.run_window(1e13)  # everything completes well before this
        assert m.engine.now == 1e13

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
        horizon = 0.0
        for _ in range(20):
            horizon += 6e8
            win.run_window(horizon)
        win.run_window(1e13)
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
