"""Golden-trace equivalence: object vs batched core, bit for bit.

The batched core (:meth:`SimMachine._run_batched`) is a from-scratch
rewrite of the simulator hot path; its contract is that a fixed-seed run
is *bit-identical* to the object path — same counter floats, same final
clock, same number of events processed, same per-kind split. These tests
pin that contract on the three paper applications plus targeted machine
micro-scenarios (quantum batching, serial dependency chains,
unbound-thread rng parity, oversubscribed preemption, event budgets). Any drift — a
reordered float add, a different (when, seq) event order, an extra rng
draw — shows up here as an exact-compare failure, not a tolerance miss.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.simcore

from repro.apps.lk23 import Lk23Config, run_openmp_lk23, run_orwl_lk23
from repro.apps.matmul import MatmulConfig, run_orwl_matmul
from repro.apps.video.pipeline import VideoConfig, run_orwl_video
from repro.errors import SimulationError
from repro.sim import Compute, SimMachine, Touch, Wait
from repro.sim.observe import RingTrace, SimObserver
from repro.topology import smp12e5, smp20e7
from repro.util.bitmap import Bitmap


def machine_fingerprint(machine: SimMachine) -> dict:
    """Everything the equivalence contract covers, exact floats included."""
    return {
        "counters": machine.total_counters().snapshot(),
        "compute": machine.counters_by_kind("compute").snapshot(),
        "control": machine.counters_by_kind("control").snapshot(),
        "elapsed_cycles": machine.elapsed_cycles,
        "events_processed": machine.engine.events_processed,
        "thread_states": [t.state for t in machine.threads],
    }


def assert_identical(fp_object: dict, *fp_others: dict) -> None:
    # Compare field by field for a readable diff on failure.
    for fp in fp_others:
        for key in fp_object:
            assert fp[key] == fp_object[key], key


# -- the three paper applications ------------------------------------------------


class TestAppGoldenTraces:
    @pytest.mark.parametrize("affinity", [False, True])
    def test_orwl_lk23(self, affinity):
        cfg = Lk23Config(n=24, iterations=3, n_threads=16)
        runs = [
            run_orwl_lk23(smp12e5(), cfg, affinity=affinity, seed=11,
                          core=core)
            for core in ("object", "batched")
        ]
        assert_identical(*[machine_fingerprint(r.machine) for r in runs])

    @pytest.mark.parametrize("binding", [None, "close"])
    def test_openmp_lk23(self, binding):
        cfg = Lk23Config(n=24, iterations=3, n_threads=12)
        runs = [
            run_openmp_lk23(smp12e5(), cfg, binding=binding, seed=7,
                            core=core)
            for core in ("object", "batched")
        ]
        assert_identical(*[machine_fingerprint(r.machine) for r in runs])

    @pytest.mark.parametrize("affinity", [False, True])
    def test_orwl_matmul(self, affinity):
        cfg = MatmulConfig(n=48, n_tasks=8)
        runs = [
            run_orwl_matmul(smp20e7(), cfg, affinity=affinity, seed=3,
                            core=core)
            for core in ("object", "batched")
        ]
        assert_identical(*[machine_fingerprint(r.machine) for r in runs])

    @pytest.mark.parametrize("affinity", [False, True])
    def test_orwl_video(self, affinity):
        cfg = VideoConfig(resolution="HD", frames=2)
        runs = [
            run_orwl_video(smp12e5(), cfg, affinity=affinity, seed=5,
                           core=core)[0]
            for core in ("object", "batched")
        ]
        assert_identical(*[machine_fingerprint(r.machine) for r in runs])


# -- machine-level micro-scenarios ----------------------------------------------


def ring_machine(core: str, *, bound: bool, topo=smp12e5, seed: int = 0):
    machine = SimMachine(topo(), seed=seed, core=core)
    stages = 24
    bufs = [machine.allocate(1 << 16, f"b{i}") for i in range(stages)]
    events = [machine.event(f"e{i}") for i in range(stages)]

    def stage(i):
        nxt = events[(i + 1) % stages]
        for _ in range(20):
            yield Compute(1e4)
            yield Touch(bufs[i], 4096, write=True)
            nxt.signal()
            yield Wait(events[i])

    for i in range(stages):
        cpuset = Bitmap.single(2 * i) if bound else None
        machine.add_thread(f"s{i}", stage(i), cpuset=cpuset)
    events[0].signal()
    return machine


def serial_chain_machine(core: str, *, shape: str = "ring",
                         bound: bool = True, seed: int = 0):
    """A genuinely serial dependency chain: every stage waits FIRST.

    ``ring`` passes one token around 8 stages (exactly one runnable
    thread at any instant); ``line`` has stage 0 produce tokens down a
    relay; ``stages`` adds writes to buffers shared by adjacent relay
    stages so chain hand-offs interleave with cache traffic.
    """
    machine = SimMachine(smp12e5(), seed=seed, core=core)
    n = 8
    loops = 30
    events = [machine.event(f"e{i}") for i in range(n)]
    bufs = [machine.allocate(1 << 15, f"b{i}") for i in range(n + 1)]

    def ring_stage(i):
        nxt = events[(i + 1) % n]
        for _ in range(loops):
            yield Wait(events[i])
            yield Compute(1e4)
            nxt.signal()

    def head():
        for _ in range(loops):
            yield Compute(1e4)
            yield Touch(bufs[0], 2048, write=True)
            events[1].signal()

    def relay(i):
        for _ in range(loops):
            yield Wait(events[i])
            if shape == "stages":
                yield Touch(bufs[i], 2048, write=False)
            yield Compute(1e4)
            yield Touch(bufs[i + 1], 2048, write=True)
            if i < n - 1:
                events[i + 1].signal()

    for i in range(n):
        gen = ring_stage(i) if shape == "ring" else (
            head() if i == 0 else relay(i)
        )
        cpuset = Bitmap.single(2 * i) if bound else None
        machine.add_thread(f"c{i}", gen, cpuset=cpuset)
    if shape == "ring":
        events[0].signal()
    return machine


class TestMachineGoldenTraces:
    @pytest.mark.parametrize("bound", [True, False])
    def test_ring(self, bound):
        machines = []
        for core in ("object", "batched"):
            m = ring_machine(core, bound=bound)
            m.run()
            machines.append(m)
        assert_identical(*[machine_fingerprint(m) for m in machines])

    @pytest.mark.parametrize("bound", [True, False])
    @pytest.mark.parametrize("shape", ["ring", "line", "stages"])
    def test_serial_chain(self, shape, bound):
        """Chain-heavy programs: one runnable thread at a time (unlike
        the classic ring above, whose stages all compute before their
        first Wait and stay 24-wide), so every hand-off goes through a
        wakeup and a fresh placement."""
        fps = []
        for core in ("object", "batched"):
            m = serial_chain_machine(core, shape=shape, bound=bound)
            m.run()
            fps.append(machine_fingerprint(m))
        assert_identical(*fps)

    def test_unbound_rng_parity_on_spread_policy(self):
        # smp20e7 defaults to the "spread" policy and unbound threads draw
        # from the rng (os jitter, wakeup migration) — exercises that both
        # cores consume the stream in the same order.
        machines = []
        for core in ("object", "batched"):
            m = ring_machine(core, bound=False, topo=smp20e7, seed=17)
            m.run()
            machines.append(m)
        assert_identical(*[machine_fingerprint(m) for m in machines])

    def test_quantum_batch_path(self):
        # Many bound threads with multi-quantum computes: large
        # same-instant buckets of busy completions at every quantum
        # boundary.
        def build(core):
            m = SimMachine(smp12e5(), seed=0, core=core)
            evs = [m.event(f"e{i}") for i in range(64)]

            def worker(i):
                for _ in range(10):
                    yield Compute(5e6)
                    evs[i].signal()
                    if i:
                        yield Wait(evs[i - 1])

            for i in range(64):
                m.add_thread(f"c{i}", worker(i), cpuset=Bitmap.single(i))
            m.run()
            return m

        assert_identical(
            machine_fingerprint(build("object")),
            machine_fingerprint(build("batched")),
        )

    def test_oversubscribed_preemption_parity(self):
        # More runnable threads than PUs in their cpuset: quantum expiry
        # preempts mid-Compute, so threads re-enter via start_on and the
        # EV_STEP event fires with pending busy work — a path the
        # uncontended rings above never reach.
        def build(core):
            m = SimMachine(smp12e5(), seed=0, core=core)
            pus = Bitmap.range(0, 4)

            def worker(i):
                for _ in range(2):
                    # 5e7 cycles: spans multiple 2e7-cycle quanta, so the
                    # boundary preempts with busy work still pending.
                    yield Compute(1e8)

            for i in range(12):
                m.add_thread(f"w{i}", worker(i), cpuset=pus)
            m.run()
            return m

        assert_identical(
            machine_fingerprint(build("object")),
            machine_fingerprint(build("batched")),
        )

    def test_event_budget_parity(self):
        # Both cores must stop at exactly the same processed-event count
        # and leave the same partial clock behind.
        results = []
        for core in ("object", "batched"):
            m = ring_machine(core, bound=True)
            with pytest.raises(SimulationError, match="event budget"):
                m.run(max_events=500)
            results.append(
                (m.engine.events_processed, m.elapsed_cycles,
                 m.total_counters().snapshot())
            )
        assert results[0] == results[1]

    def test_max_cycles_parity(self):
        # Both cores must stop at the same horizon with the same last
        # event drained (the clock itself always lands on the horizon).
        # The ring runs to ~115k cycles, so 6e4 stops it mid-flight.
        results = []
        for core in ("object", "batched"):
            m = ring_machine(core, bound=True)
            m.run_window(6e4)
            assert m.pending > 0
            results.append(
                (m.engine.events_processed, m.window_drained_at,
                 m.total_counters().snapshot())
            )
        assert results[0] == results[1]


# -- core selection rules --------------------------------------------------------


class TestCoreSelection:
    def test_unknown_core_rejected(self):
        for core in ("vectorized", "auto"):
            with pytest.raises(SimulationError, match="unknown core"):
                SimMachine(smp12e5(), core=core)

    def test_monitors_and_trace_run_natively_on_batched(self):
        class Monitor:
            touches = blocks = finishes = 0

            def on_touch(self, thread, buffer, nbytes, write):
                self.touches += 1

            def on_block(self, thread, event):
                self.blocks += 1

            def on_finish(self, thread):
                self.finishes += 1

        records = {}
        monitors = {}
        placements = {}
        for core in ("object", "batched"):
            m = ring_machine(core, bound=True)
            obs = m.attach_observer(
                SimObserver(metrics=False, trace=RingTrace())
            )
            mon = Monitor()
            m.monitors.append(mon)
            placed = []
            m.scheduler.on_place.append(
                lambda pu, thread, acc=placed: acc.append((pu, thread.tid))
            )
            m.run()
            assert m.core_used == core
            records[core] = obs.ring.records()
            monitors[core] = (mon.touches, mon.blocks, mon.finishes)
            placements[core] = placed
        assert records["batched"] == records["object"]
        assert monitors["batched"] == monitors["object"]
        assert placements["batched"] == placements["object"]
        assert records["batched"]  # the taps actually observed something
        assert monitors["batched"][0] > 0

    def test_run_is_single_shot(self):
        m = ring_machine("batched", bound=True)
        m.run()
        with pytest.raises(SimulationError, match="only be called once"):
            m.run()
