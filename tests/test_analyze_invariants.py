"""SimSanitizer: checked-mode invariants, zero cost off, cross-core.

The sanitizer rides the native monitor taps, so both simulator cores
are covered by the same checks; the difftest family under
``REPRO_SANITIZE=1`` plus :func:`repro.analyze.invariants.fingerprint`
pin down that the checked runs agree bit-for-bit across cores.
"""

import pytest

from repro.analyze.invariants import SimSanitizer, fingerprint
from repro.errors import InvariantViolation
from repro.sim import Compute, SimMachine, Touch
from repro.topology import smp12e5
from repro.util.bitmap import Bitmap


def tiny_run(core: str = "auto", **kwargs) -> SimMachine:
    machine = SimMachine(smp12e5(), core=core, **kwargs)
    buf = machine.allocate(1 << 16, "b")

    def body():
        for _ in range(20):
            yield Compute(1e4)
            yield Touch(buf, 4096, write=True)

    for i in range(4):
        machine.add_thread(f"t{i}", body(), cpuset=Bitmap.single(2 * i))
    machine.run()
    return machine


class TestCheckedMode:
    def test_off_by_default_no_sanitizer(self):
        machine = tiny_run()
        assert machine.sanitize is False
        assert machine.sanitizer is None

    def test_on_runs_checks_and_holds(self):
        machine = tiny_run(sanitize=True)
        assert machine.sanitizer is not None
        assert machine.sanitizer.checks > 0
        assert machine.sanitizer.violations == []

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        machine = tiny_run()
        assert machine.sanitize is True
        assert machine.sanitizer is not None
        assert machine.sanitizer.checks > 0

    def test_explicit_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        machine = tiny_run(sanitize=False)
        assert machine.sanitizer is None

    def test_checked_run_does_not_change_results(self):
        plain = tiny_run()
        checked = tiny_run(sanitize=True)
        assert plain.elapsed_cycles == checked.elapsed_cycles
        assert (plain.engine.events_processed
                == checked.engine.events_processed)
        assert (plain.total_counters().snapshot()
                == checked.total_counters().snapshot())


class TestCrossCoreAgreement:
    def test_fingerprints_match_between_cores(self):
        fps = []
        for core in ("batched", "object"):
            machine = tiny_run(core, sanitize=True)
            fp = fingerprint(machine)
            fp.pop("core_used")
            fps.append(fp)
        assert fps[0] == fps[1]

    def test_fingerprint_reports_check_count(self):
        machine = tiny_run(sanitize=True)
        assert fingerprint(machine)["sanitizer_checks"] > 0


class TestRemapEpochBoundary:
    """Occupancy/clock invariants must hold straight through a live
    rebind between ``run_window`` epochs — the adaptive controller's
    remap path."""

    @staticmethod
    def _windowed_remap(core: str) -> SimMachine:
        from repro.sim import YieldCPU

        machine = SimMachine(smp12e5(), core=core, sanitize=True)
        buf = machine.allocate(1 << 16, "b")

        def body():
            for _ in range(20):
                yield Compute(1e5)
                yield Touch(buf, 4096, write=True)
                yield YieldCPU()

        for i in range(4):
            machine.add_thread(f"t{i}", body(), cpuset=Bitmap.single(2 * i))
        machine.attach_sanitizer()
        machine.run_window(3e5)
        # The remap epoch boundary: migrate two threads while the
        # sanitizer's occupancy tap is live.
        machine.bind_thread(machine.threads[0], Bitmap.single(1))
        machine.bind_thread(machine.threads[1], Bitmap.single(3))
        horizon = 6e5
        for _ in range(30):
            machine.run_window(horizon)
            if all(t.state == "done" for t in machine.threads):
                break
            horizon += 3e5
        machine.sanitizer.verify(machine)
        return machine

    @pytest.mark.parametrize("core", ["object", "batched"])
    def test_occupancy_holds_across_rebind(self, core):
        machine = self._windowed_remap(core)
        assert all(t.state == "done" for t in machine.threads)
        assert machine.sanitizer.checks > 0
        assert machine.sanitizer.violations == []

    def test_checked_remap_matches_between_cores(self):
        fps = []
        for core in ("batched", "object"):
            fp = fingerprint(self._windowed_remap(core))
            fp.pop("core_used")
            fp.pop("elapsed_cycles")  # windowed clock sits on the horizon
            fps.append(fp)
        assert fps[0] == fps[1]


class TestViolationDetection:
    def test_negative_touch_bytes_fires(self):
        machine = tiny_run(sanitize=True)
        san = machine.sanitizer
        thread = machine.threads[0]
        with pytest.raises(InvariantViolation, match="touch-bytes"):
            san.on_touch(thread, None, -1, True)
        assert any("touch-bytes" in v for v in san.violations)

    def test_clock_regression_fires(self):
        machine = tiny_run(sanitize=True)
        san = machine.sanitizer
        san._last_now = machine.engine.now + 1e9
        with pytest.raises(InvariantViolation, match="clock-monotonic"):
            san._check_clock()

    def test_corrupted_counters_fail_verify(self):
        machine = tiny_run(sanitize=True)
        counters = machine.threads[0].counters
        counters.busy_cycles = -1.0
        with pytest.raises(InvariantViolation):
            machine.sanitizer.verify(machine)

    @staticmethod
    def _flip_mid_run(core: str, pu: int) -> SimMachine:
        """Run bound yielding threads on PUs 0/2/4/6 and flip *pu*'s bit in
        its node's free mask from an engine event mid-run."""
        from repro.sim import YieldCPU

        machine = SimMachine(smp12e5(), core=core)
        buf = machine.allocate(1 << 16, "b")

        def body():
            for _ in range(20):
                yield Compute(1e5)
                yield Touch(buf, 4096, write=True)
                yield YieldCPU()

        for i in range(4):
            machine.add_thread(f"t{i}", body(), cpuset=Bitmap.single(2 * i))
        sched = machine.scheduler
        node = machine.memory.pu_numa_map[pu]

        def flip():
            sched._node_free[node] ^= 1 << pu

        machine.engine.schedule(5e5, flip)
        machine.run()
        return machine

    @pytest.mark.parametrize("core", ["object", "batched"])
    def test_flipped_mask_bit_of_placed_pu_fires(self, core, monkeypatch):
        # PU 0 keeps being re-placed after the flip, so the live on_place
        # check sees its bit set while t0 occupies it.
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with pytest.raises(InvariantViolation, match="occupancy.*free mask"):
            self._flip_mid_run(core, 0)

    @pytest.mark.parametrize("core", ["object", "batched"])
    def test_flipped_mask_bit_of_idle_pu_fails_drain(self, core, monkeypatch):
        # Nothing is ever placed on PU 100: only the drain check sees it.
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with pytest.raises(InvariantViolation, match="scheduler-idle"):
            self._flip_mid_run(core, 100)

    def test_violation_is_simulation_error(self):
        from repro.errors import SimulationError

        assert issubclass(InvariantViolation, SimulationError)
