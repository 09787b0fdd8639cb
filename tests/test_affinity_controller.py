"""The adaptive remapping controller (``repro.affinity``).

Three layers of assurance:

* property tests over the drift detector's control-loop guards
  (EWMA bounds, hysteresis, cooldown spacing) with seeded ``random``
  sequences — the contracts hold for *any* score stream, not just the
  tuned experiment;
* determinism of full controller runs on fixed seeds;
* the zero-remap differential family: on a phase-stable program the
  controller must be a pure observer — zero remaps and a fingerprint
  identical to the uncontrolled windowed run — on every simulator core,
  with and without extra taps, under ``REPRO_SANITIZE=1``.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.affinity import (
    AdaptiveController,
    ControllerConfig,
    DriftConfig,
    DriftDetector,
    WindowTelemetry,
    drift_score,
)
from repro.errors import AffinityError, DeadlockError
from repro.experiments.adaptive import run_adaptive
from repro.orwl import Runtime
from repro.sim.observe import SimObserver
from repro.topology import fig2_machine
from tests.harness.adaptive import (
    CORES,
    machine_fingerprint,
    run_controlled,
    run_uncontrolled,
    shift_setup,
    small_config,
    stable_setup,
)

pytestmark = pytest.mark.adaptive


class TestDriftScore:
    def test_zero_for_identical_shapes_any_scale(self):
        m = np.array([[0.0, 3.0], [1.0, 0.0]])
        assert drift_score(m, m * 1e6) == 0.0

    def test_disjoint_supports_score_one(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert drift_score(a, b) == pytest.approx(1.0)

    def test_empty_side_scores_zero(self):
        z = np.zeros((2, 2))
        m = np.ones((2, 2))
        assert drift_score(z, m) == 0.0
        assert drift_score(m, z) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AffinityError, match="shapes differ"):
            drift_score(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_bounded_on_random_matrices(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 6)
            a = np.array([[rng.random() for _ in range(n)] for _ in range(n)])
            b = np.array([[rng.random() for _ in range(n)] for _ in range(n)])
            s = drift_score(a, b)
            assert 0.0 <= s <= 1.0 + 1e-12


class TestDriftDetectorProperties:
    def test_ewma_bounded_by_input_extremes(self):
        # The EWMA is a convex combination of everything seen so far,
        # so it can never escape [min(scores), max(scores)].
        rng = random.Random(11)
        for alpha in (0.1, 0.5, 0.9, 1.0):
            det = DriftDetector(DriftConfig(alpha=alpha))
            lo, hi = 1.0, 0.0
            for _ in range(300):
                s = rng.random()
                lo, hi = min(lo, s), max(hi, s)
                det.update(s)
                assert lo - 1e-12 <= det.ewma <= hi + 1e-12

    def test_never_retriggers_inside_the_band(self):
        # Fire once, then feed scores strictly inside (low, high): every
        # input exceeds `low`, so the EWMA (a convex combination) never
        # dips to the re-arm threshold and the detector can never fire
        # again no matter how long the oscillation lasts.
        rng = random.Random(13)
        for trial in range(20):
            cfg = DriftConfig(alpha=0.5, high=0.25, low=0.10, cooldown=2)
            det = DriftDetector(cfg)
            while not det.update(1.0):
                pass
            assert det.triggers == 1
            for _ in range(200):
                fired = det.update(rng.uniform(cfg.low + 1e-6,
                                               cfg.high - 1e-6))
                assert not fired
                assert det.ewma > cfg.low
            assert det.triggers == 1

    def test_no_retrigger_without_dip_below_low(self):
        # Hysteresis, upper half: a score pinned above `high` keeps the
        # detector disarmed forever once it fired — cooldown expiring
        # is not sufficient to re-fire.
        det = DriftDetector(DriftConfig(cooldown=1))
        assert any(det.update(1.0) for _ in range(3))
        for _ in range(100):
            assert not det.update(1.0)
        assert det.triggers == 1

    def test_cooldown_spacing_on_any_sequence(self):
        # For ANY score sequence, two triggers are separated by at
        # least max(1, cooldown) updates.
        rng = random.Random(17)
        for trial in range(30):
            cooldown = rng.randint(0, 5)
            cfg = DriftConfig(
                alpha=rng.choice((0.3, 0.5, 1.0)),
                high=0.2, low=0.2, cooldown=cooldown,
            )
            det = DriftDetector(cfg)
            fired_at = []
            for i in range(400):
                # Extreme scores maximize trigger pressure.
                if det.update(rng.choice((0.0, 1.0))):
                    fired_at.append(i)
            for a, b in zip(fired_at, fired_at[1:]):
                assert b - a >= max(1, cooldown)

    def test_reset_clears_smoothing_keeps_counts(self):
        det = DriftDetector(DriftConfig(cooldown=3))
        assert any(det.update(1.0) for _ in range(3))
        assert det.triggers == 1 and not det.armed
        updates = det.updates
        cd = det.cooldown_left
        det.reset()
        assert det.ewma is None and det.armed
        assert det.triggers == 1 and det.updates == updates
        assert det.cooldown_left == cd  # cooldown guards real time

    def test_score_out_of_range_rejected(self):
        det = DriftDetector()
        with pytest.raises(AffinityError, match="out of range"):
            det.update(1.5)
        with pytest.raises(AffinityError, match="out of range"):
            det.update(-0.1)

    def test_config_validation(self):
        with pytest.raises(AffinityError):
            DriftConfig(alpha=0.0)
        with pytest.raises(AffinityError):
            DriftConfig(low=0.3, high=0.2)
        with pytest.raises(AffinityError):
            DriftConfig(cooldown=-1)


def _thread(tid):
    return SimpleNamespace(tid=tid)


class TestWindowTelemetry:
    def test_first_touch_ownership_attribution(self):
        tel = WindowTelemetry(3, decay=0.5)
        buf = object()
        tel.on_touch(_thread(0), buf, 100, True)   # 0 becomes owner
        tel.on_touch(_thread(1), buf, 40, False)   # 1 received from 0
        tel.on_touch(_thread(0), buf, 100, True)   # owner's own touch: free
        assert tel.fold_window() == 40.0
        assert tel.estimate[1, 0] == 40.0
        assert tel.estimate.sum() == 40.0

    def test_decay_folds_old_windows_down(self):
        tel = WindowTelemetry(2, decay=0.5)
        buf = object()
        tel.on_touch(_thread(0), buf, 8, True)
        tel.on_touch(_thread(1), buf, 8, False)
        tel.fold_window()
        tel.fold_window()  # empty window: estimate halves
        assert tel.estimate[1, 0] == 4.0
        assert tel.windows == 2

    def test_reset_to_last_window_drops_history(self):
        tel = WindowTelemetry(2, decay=1.0)
        buf = object()
        tel.on_touch(_thread(0), buf, 8, True)
        tel.on_touch(_thread(1), buf, 8, False)
        tel.fold_window()
        tel.on_touch(_thread(1), buf, 2, False)
        tel.fold_window()
        assert tel.estimate[1, 0] == 10.0  # decay=1: running sum
        tel.reset_to_last_window()
        assert tel.estimate[1, 0] == 2.0

    def test_out_of_range_tid_ignored(self):
        tel = WindowTelemetry(1)
        buf = object()
        tel.on_touch(_thread(5), buf, 8, True)
        assert tel.fold_window() == 0.0

    def test_validation(self):
        with pytest.raises(AffinityError):
            WindowTelemetry(0)
        with pytest.raises(AffinityError):
            WindowTelemetry(2, decay=1.5)
        with pytest.raises(AffinityError):
            ControllerConfig(gather_windows=0)


class TestControllerDeterminism:
    def test_fixed_seed_bitwise_repeatable(self):
        a = run_adaptive(shift_setup(8))
        b = run_adaptive(shift_setup(8))
        assert a["seconds"] == b["seconds"]
        assert a["windows"] == b["windows"]
        assert a["remaps"] == b["remaps"]
        assert a["phase_cycles"] == b["phase_cycles"]

    def test_phase_shift_actually_remaps(self):
        rep = run_adaptive(shift_setup(8))
        assert len(rep["remaps"]) >= 1
        for dec in rep["remaps"]:
            assert set(dec) == {"window", "drift", "moved", "warm"}
            assert dec["moved"] > 0

    def test_run_is_single_shot(self):
        controller, _, _ = run_controlled(stable_setup(2))
        with pytest.raises(AffinityError, match="only be called once"):
            controller.run()

    def test_deadlock_fails_fast(self):
        # The writer never releases, so the reader blocks for good: the
        # first window that leaves nothing in flight must raise run()'s
        # DeadlockError naming the stuck thread, not spin through
        # max_windows empty windows.
        rt = Runtime(fig2_machine(), affinity=False)
        a, b = rt.task("a"), rt.task("b")
        loc = a.location("out", 64)
        hw = a.write_handle(loc, iterative=True)
        hr = b.read_handle(loc, iterative=True)

        def writer(op):
            yield from hw.acquire()

        def reader(op):
            yield from hr.acquire()
            hr.release()

        a.set_body(writer)
        b.set_body(reader)
        controller = AdaptiveController.for_orwl(rt, config=small_config())
        with pytest.raises(DeadlockError, match="b/op0"):
            controller.run()


class TestZeroRemapFamily:
    """Phase-stable program: the controller must be a pure observer."""

    @pytest.mark.parametrize("core", CORES)
    @pytest.mark.parametrize("taps", ["off", "on"])
    def test_untouched_vs_uncontrolled(self, core, taps, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        setup = stable_setup(4)
        base = run_uncontrolled(
            setup, core=core,
            observer=SimObserver() if taps == "on" else None,
        )
        controller, result, machine = run_controlled(
            setup, core=core,
            observer=SimObserver() if taps == "on" else None,
        )
        assert controller.decisions == []
        assert controller.telemetry.windows == controller.windows_run - 1 or \
            controller.telemetry.windows == controller.windows_run
        assert machine_fingerprint(machine) == machine_fingerprint(base)
        # REPRO_SANITIZE=1 reached both machines and actually checked.
        for m in (base, machine):
            assert m.sanitize and m.sanitizer is not None
            assert m.sanitizer.checks > 0
            assert m.sanitizer.violations == []
        assert result.seconds == machine.window_drained_at / machine.clock_hz

    def test_fingerprints_identical_across_cores(self):
        prints = []
        for core in CORES:
            controller, _, machine = run_controlled(stable_setup(4), core=core)
            assert controller.decisions == []
            prints.append(machine_fingerprint(machine))
        assert prints[0] == prints[1]


class TestOpenMPAdapter:
    def _master(self, omp, bufs):
        def body(item):
            yield from ()
            # Each worker reads the master-owned buffer: cross-thread
            # traffic the telemetry can attribute.

        def chunk(item):
            from repro.sim.process import Compute, Touch
            yield Compute(5e4)
            yield Touch(bufs[item % len(bufs)], 4096, write=False)

        def master_body():
            from repro.sim.process import Touch
            for b in bufs:
                yield Touch(b, 4096, write=True)  # first touch: master owns
            for _ in range(4):
                yield from omp.parallel_for(8, chunk)
        return master_body()

    def test_for_openmp_phase_stable_zero_remaps(self):
        from repro.openmp import OpenMPRuntime
        from repro.topology import smp12e5

        def build():
            omp = OpenMPRuntime(smp12e5(), 4, binding="close", seed=3)
            bufs = [omp.machine.allocate(1 << 15, f"b{i}") for i in range(4)]
            return omp, bufs

        omp_base, bufs_base = build()
        base = omp_base.run(lambda rt: self._master(rt, bufs_base))

        omp_ctl, bufs_ctl = build()
        controller = AdaptiveController.for_openmp(
            omp_ctl, lambda rt: self._master(rt, bufs_ctl),
            config=small_config(window_cycles=2e5),
        )
        result = controller.run()
        assert controller.decisions == []
        assert controller.windows_run >= 2
        assert result.seconds == base.seconds
        assert result.counters.snapshot() == base.counters.snapshot()
