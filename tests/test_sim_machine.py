"""Integration tests for the simulated machine: time, caches, NUMA, OS."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Compute, SimMachine, Touch, Wait, YieldCPU
from repro.sim.params import CostModel
from repro.topology import TopologySpec, build_topology, fig2_machine, smp12e5, smp20e7
from repro.util.bitmap import Bitmap


def small_machine(**kw):
    return SimMachine(fig2_machine(), **kw)


class TestBasics:
    def test_compute_takes_expected_time(self):
        m = small_machine()
        m.add_thread("t", iter([Compute(2.6e9)]), cpuset=Bitmap.single(0))
        secs = m.run()
        # 2.6e9 flops * 0.5 cyc/flop at 2.6 GHz = 0.5 s (+ tiny overheads)
        assert secs == pytest.approx(0.5, rel=0.01)

    def test_parallel_threads_overlap(self):
        m = small_machine()
        for i in range(4):
            m.add_thread(f"t{i}", iter([Compute(2.6e9)]), cpuset=Bitmap.single(i))
        secs = m.run()
        assert secs == pytest.approx(0.5, rel=0.01)  # all in parallel

    def test_two_threads_one_pu_serialize(self):
        m = small_machine()
        for i in range(2):
            m.add_thread(f"t{i}", iter([Compute(2.6e9)]), cpuset=Bitmap.single(0))
        secs = m.run()
        assert secs == pytest.approx(1.0, rel=0.02)

    def test_efficiency_scales_compute(self):
        m = small_machine()
        m.add_thread("t", iter([Compute(2.6e9, efficiency=2.0)]),
                     cpuset=Bitmap.single(0))
        assert m.run() == pytest.approx(0.25, rel=0.01)

    def test_run_only_once(self):
        m = small_machine()
        m.add_thread("t", iter([Compute(1.0)]), cpuset=Bitmap.single(0))
        m.run()
        with pytest.raises(SimulationError):
            m.run()

    def test_flops_counted(self):
        m = small_machine()
        m.add_thread("t", iter([Compute(123.0)]), cpuset=Bitmap.single(0))
        m.run()
        assert m.total_counters().flops == pytest.approx(123.0)


class TestHyperthreadContention:
    def test_sibling_compute_slows_down(self):
        topo = smp12e5()
        # Two compute threads on sibling PUs 0 and 1 (same core).
        m = SimMachine(topo)
        m.add_thread("a", iter([Compute(2.6e9)]), cpuset=Bitmap.single(0))
        m.add_thread("b", iter([Compute(2.6e9)]), cpuset=Bitmap.single(1))
        contended = m.run()

        m2 = SimMachine(topo)
        m2.add_thread("a", iter([Compute(2.6e9)]), cpuset=Bitmap.single(0))
        m2.add_thread("b", iter([Compute(2.6e9)]), cpuset=Bitmap.single(2))
        separate = m2.run()
        assert contended > separate * 1.5

    def test_control_sibling_does_not_slow_compute(self):
        topo = smp12e5()
        m = SimMachine(topo)
        m.add_thread("a", iter([Compute(2.6e9)]), cpuset=Bitmap.single(0))
        m.add_thread(
            "ctl", iter([Compute(2.6e9)]), kind="control", cpuset=Bitmap.single(1)
        )
        secs = m.run()
        assert secs == pytest.approx(0.5, rel=0.02)


class TestCacheAndNuma:
    def test_repeat_touch_hits_cache(self):
        m = small_machine()
        buf = m.allocate(1 << 20, "b")

        def gen():
            yield Touch(buf)
            yield Touch(buf)

        m.add_thread("t", gen(), cpuset=Bitmap.single(0))
        m.run()
        c = m.total_counters()
        assert c.l3_misses == pytest.approx((1 << 20) / 64)
        assert c.l3_hits == pytest.approx((1 << 20) / 64)

    def test_buffer_larger_than_l3_always_misses(self):
        m = small_machine()
        big = m.allocate(64 << 20, "big")  # 64 MB > 20 MB L3

        def gen():
            yield Touch(big)
            yield Touch(big)

        m.add_thread("t", gen(), cpuset=Bitmap.single(0))
        m.run()
        c = m.total_counters()
        assert c.l3_hits == 0.0

    def test_first_touch_homes_buffer(self):
        m = small_machine()
        buf = m.allocate(4096, "b")

        def gen():
            yield Touch(buf)

        m.add_thread("t", gen(), cpuset=Bitmap.single(17))  # NUMA node 2
        m.run()
        assert buf.home_numa == m.memory.numa_of_pu(17)

    def test_remote_access_slower_and_counted(self):
        def run(reader_pu):
            m = small_machine()
            buf = m.allocate(8 << 20, "b", home_numa=0)

            def gen():
                yield Touch(buf)

            m.add_thread("t", gen(), cpuset=Bitmap.single(reader_pu))
            secs = m.run()
            return secs, m.total_counters()

        t_local, c_local = run(0)
        t_remote, c_remote = run(31)
        assert t_remote > t_local * 1.5
        assert c_remote.remote_bytes > 0
        assert c_local.remote_bytes == 0

    def test_shared_l3_producer_consumer(self):
        topo = fig2_machine()

        def run(consumer_pu):
            m = SimMachine(topo)
            buf = m.allocate(1 << 20, "b", home_numa=0)
            ready = m.event("ready")

            def prod():
                yield Touch(buf, write=True)
                ready.signal()

            def cons():
                yield Wait(ready)
                yield Touch(buf)

            m.add_thread("p", prod(), cpuset=Bitmap.single(0))
            m.add_thread("c", cons(), cpuset=Bitmap.single(consumer_pu))
            m.run()
            return m.total_counters()

        same_l3 = run(1)
        cross_l3 = run(8)
        assert same_l3.l3_misses < cross_l3.l3_misses

    def test_write_invalidates_other_l3(self):
        topo = fig2_machine()
        m = SimMachine(topo)
        buf = m.allocate(1 << 20, "b", home_numa=0)
        e1, e2 = m.event("e1"), m.event("e2")

        def reader():
            yield Touch(buf)  # warm far L3
            e1.signal()
            yield Wait(e2)
            yield Touch(buf)  # must miss again after remote write

        def writer():
            yield Wait(e1)
            yield Touch(buf, write=True)
            e2.signal()

        m.add_thread("r", reader(), cpuset=Bitmap.single(8))
        m.add_thread("w", writer(), cpuset=Bitmap.single(0))
        m.run()
        reader_counters = m.threads[0].counters
        # Both reader touches miss: cold, then invalidated.
        assert reader_counters.l3_misses == pytest.approx(2 * (1 << 20) / 64)

    def test_bad_alloc_rejected(self):
        m = small_machine()
        with pytest.raises(SimulationError):
            m.allocate(0)
        with pytest.raises(SimulationError):
            m.allocate(10, home_numa=99)


class TestSchedulerBehaviour:
    def test_bound_threads_never_migrate(self):
        m = SimMachine(smp20e7())
        for i in range(4):
            gen = iter([Compute(5e9)])
            m.add_thread(f"t{i}", gen, cpuset=Bitmap.single(i * 8))
        m.run()
        assert m.total_counters().cpu_migrations == 0

    def test_unbound_threads_migrate_eventually(self):
        m = SimMachine(smp20e7(), seed=2)
        for i in range(4):
            m.add_thread(f"t{i}", iter([Compute(2e10)]))
        m.run()
        assert m.total_counters().cpu_migrations > 0

    def test_spread_policy_uses_many_nodes(self):
        m = SimMachine(smp20e7(), os_policy="spread",
                       model=CostModel(migrate_prob=0.0))
        threads = [m.add_thread(f"t{i}", iter([Compute(1e8)])) for i in range(8)]
        m.run()
        nodes = {m.memory.numa_of_pu(t.last_pu) for t in threads}
        assert len(nodes) == 8

    def test_consolidate_policy_packs(self):
        m = SimMachine(smp12e5(), os_policy="consolidate",
                       model=CostModel(migrate_prob=0.0))
        threads = [m.add_thread(f"t{i}", iter([Compute(1e8)])) for i in range(8)]
        m.run()
        nodes = {m.memory.numa_of_pu(t.last_pu) for t in threads}
        assert len(nodes) == 1

    def test_unknown_policy_rejected(self):
        with pytest.raises(SimulationError):
            SimMachine(fig2_machine(), os_policy="weird")

    def test_more_threads_than_pus_timeshare(self):
        spec = TopologySpec(name="one", cores_per_socket=1)
        topo = build_topology(spec)
        m = SimMachine(topo)
        for i in range(3):
            m.add_thread(f"t{i}", iter([Compute(2.6e9)]))
        secs = m.run()
        assert secs == pytest.approx(3 * 0.5, rel=0.05)
        assert m.total_counters().context_switches >= 3


class TestBlockingAndDeadlock:
    def test_wait_signal_roundtrip(self):
        m = small_machine(trace=True)
        ev = m.event("go")
        order = []

        def waiter():
            yield Wait(ev)
            order.append("woke")
            yield Compute(1.0)

        def signaler():
            yield Compute(1e6)
            order.append("signal")
            ev.signal()

        m.add_thread("w", waiter(), cpuset=Bitmap.single(0))
        m.add_thread("s", signaler(), cpuset=Bitmap.single(1))
        m.run()
        assert order == ["signal", "woke"]

    def test_pre_signalled_event_does_not_block(self):
        m = small_machine()
        ev = m.event("go", count=1)

        def gen():
            yield Wait(ev)
            yield Compute(1.0)

        m.add_thread("t", gen(), cpuset=Bitmap.single(0))
        m.run()  # must not deadlock

    def test_deadlock_detected(self):
        m = small_machine()
        ev = m.event("never")

        def gen():
            yield Wait(ev)

        m.add_thread("t", gen(), cpuset=Bitmap.single(0))
        with pytest.raises(DeadlockError):
            m.run()

    def test_yieldcpu_rotates(self):
        m = small_machine()
        log = []

        def gen(tag):
            for _ in range(3):
                log.append(tag)
                yield Compute(1e6)
                yield YieldCPU()

        m.add_thread("a", gen("a"), cpuset=Bitmap.single(0))
        m.add_thread("b", gen("b"), cpuset=Bitmap.single(0))
        m.run()
        assert log == ["a", "b", "a", "b", "a", "b"]

    def test_crash_in_thread_propagates(self):
        m = small_machine()

        def gen():
            yield Compute(1.0)
            raise RuntimeError("app bug")

        m.add_thread("t", gen(), cpuset=Bitmap.single(0))
        with pytest.raises(RuntimeError, match="app bug"):
            m.run()

    def test_unknown_op_rejected(self):
        m = small_machine()
        m.add_thread("t", iter(["junk"]), cpuset=Bitmap.single(0))
        with pytest.raises(SimulationError):
            m.run()


class TestCountersAndTrace:
    def test_counters_aggregate_by_kind(self):
        m = small_machine()
        m.add_thread("c", iter([Compute(100.0)]), cpuset=Bitmap.single(0))
        m.add_thread(
            "ctl", iter([Compute(50.0)]), kind="control", cpuset=Bitmap.single(1)
        )
        m.run()
        assert m.counters_by_kind("compute").flops == pytest.approx(100.0)
        assert m.counters_by_kind("control").flops == pytest.approx(50.0)

    def test_trace_records_lifecycle(self):
        m = small_machine(trace=True)
        m.add_thread("t", iter([Compute(1e6)]), cpuset=Bitmap.single(0))
        m.run()
        tags = [r.tag for r in m.trace.for_thread(0)]
        assert tags[0] == "ready"
        assert "run" in tags
        assert tags[-1] == "done"

    def test_invalid_kind_rejected(self):
        m = small_machine()
        with pytest.raises(SimulationError):
            m.add_thread("t", iter([]), kind="demon")


class _CountingGenerator:
    """A raw numpy Generator behind the three calls the simulator makes,
    counting them."""

    def __init__(self, generator) -> None:
        self.generator = generator
        self.calls = {"random": 0, "uniform": 0, "integers": 0}

    def random(self):
        self.calls["random"] += 1
        return self.generator.random()

    def uniform(self, low, high):
        self.calls["uniform"] += 1
        return self.generator.uniform(low, high)

    def integers(self, low, high):
        self.calls["integers"] += 1
        return self.generator.integers(low, high)


class TestRandomStream:
    """The machine's block-drawn random stream changes no outcome."""

    @staticmethod
    def _jittered(core: str, raw: bool):
        # Unbound threads under the spreading kernel: OS jitter on every
        # Compute, a wake-balance draw on every sticky wakeup, and a
        # churn coin flip plus an integers draw on rebalances (each
        # thread runs ~20 quanta, rebalanced every 8).
        m = SimMachine(smp20e7(), seed=17, core=core)
        spy = None
        if raw:
            spy = _CountingGenerator(m._rng.generator)
            m._rng = m.scheduler._rng = spy
        events = [m.event(f"e{i}") for i in range(24)]
        buf = m.allocate(1 << 16, "b")

        def worker(i):
            for _ in range(4):
                yield Compute(2e8)
                yield Touch(buf, 4096, write=(i % 2 == 0))
                events[(i + 1) % 24].signal()
                yield Wait(events[i])

        for i in range(24):
            m.add_thread(f"w{i}", worker(i))
        events[0].signal()
        m.run()
        return m, spy

    @pytest.mark.parametrize("core", ["object", "batched"])
    def test_raw_generator_gives_same_fingerprint(self, core):
        from repro.analyze.invariants import fingerprint

        built, _ = self._jittered(core, raw=False)
        raw, spy = self._jittered(core, raw=True)
        assert all(n > 0 for n in spy.calls.values()), spy.calls
        assert fingerprint(raw) == fingerprint(built)
