"""Integration tests: full ORWL programs on the simulated machine."""

import numpy as np
import pytest

from repro.errors import ORWLError
from repro.orwl import Runtime
from repro.orwl.split import split_readers
from repro.sim.process import Compute
from repro.topology import fig2_machine, smp12e5, smp20e7


def pipeline_runtime(topology, n=6, iters=4, affinity=False, log=None):
    """Listing-1 style pipeline: task i writes own loc, reads loc i-1."""
    rt = Runtime(topology, affinity=affinity)
    tasks = [rt.task(f"t{i}") for i in range(n)]
    locs = [t.location("main_loc", 4096) for t in tasks]
    for i, t in enumerate(tasks):
        here = t.write_handle(locs[i], iterative=True)
        there = t.read_handle(locs[i - 1], iterative=True) if i else None

        def body(op, i=i, here=here, there=there):
            for it in range(iters):
                yield from here.acquire()
                yield here.touch()
                yield Compute(1e5)
                if there is not None:
                    yield from there.acquire()
                    yield there.touch()
                    if log is not None:
                        log.append((i, it))
                    there.release()
                elif log is not None:
                    log.append((i, it))
                here.release()

        t.set_body(body)
    return rt


class TestPipelineExecution:
    def test_completes_without_deadlock(self):
        rt = pipeline_runtime(fig2_machine())
        res = rt.run()
        assert res.seconds > 0

    def test_iteration_order_respects_dependencies(self):
        log = []
        rt = pipeline_runtime(fig2_machine(), n=4, iters=3, log=log)
        rt.run()
        # Task i reading iteration `it` must come after task i-1 logged it.
        pos = {entry: k for k, entry in enumerate(log)}
        for i in range(1, 4):
            for it in range(3):
                assert pos[(i, it)] > pos[(i - 1, it)]

    def test_every_task_runs_all_iterations(self):
        log = []
        rt = pipeline_runtime(fig2_machine(), n=5, iters=4, log=log)
        rt.run()
        assert len(log) == 5 * 4

    def test_run_calls_schedule_implicitly(self):
        rt = pipeline_runtime(fig2_machine())
        assert not rt._scheduled
        rt.run()
        assert rt._scheduled

    def test_run_twice_rejected(self):
        rt = pipeline_runtime(fig2_machine())
        rt.run()
        with pytest.raises(ORWLError):
            rt.run()

    def test_control_threads_spawned_per_location(self):
        rt = pipeline_runtime(fig2_machine(), n=4)
        res = rt.run()
        controls = [t for t in res.machine.threads if t.kind == "control"]
        assert len(controls) == 4

    def test_counters_split_by_kind(self):
        rt = pipeline_runtime(fig2_machine())
        res = rt.run()
        assert res.compute_counters.flops > 0
        assert res.control_counters.flops > 0  # control activations burn cycles
        assert res.counters.flops == pytest.approx(
            res.compute_counters.flops + res.control_counters.flops
        )


class TestAffinityIntegration:
    def test_affinity_env_variable(self, monkeypatch):
        monkeypatch.setenv("ORWL_AFFINITY", "1")
        rt = Runtime(fig2_machine())
        assert rt.affinity_enabled
        monkeypatch.setenv("ORWL_AFFINITY", "0")
        assert not Runtime(fig2_machine()).affinity_enabled

    def test_affinity_binds_all_compute_threads(self):
        rt = pipeline_runtime(smp20e7(), affinity=True)
        res = rt.run()
        compute = [t for t in res.machine.threads if t.kind == "compute"]
        assert all(t.cpuset is not None and len(t.cpuset) == 1 for t in compute)
        assert res.counters.cpu_migrations == 0

    def test_affinity_ht_machine_reserves_siblings(self):
        rt = pipeline_runtime(smp12e5(), affinity=True)
        res = rt.run()
        assert res.placement.control_mode == "ht-sibling"
        compute_pus = set(res.placement.thread_to_pu.values())
        control_pus = set(res.placement.control_to_pu.values())
        assert compute_pus.isdisjoint(control_pus)

    def test_affinity_faster_than_native_at_scale(self):
        n, iters = 24, 6
        nat = pipeline_runtime(smp20e7(), n=n, iters=iters, affinity=False).run()
        aff = pipeline_runtime(smp20e7(), n=n, iters=iters, affinity=True).run()
        assert aff.seconds <= nat.seconds

    def test_manual_affinity_api(self):
        rt = pipeline_runtime(fig2_machine(), affinity=False)
        rt.schedule()
        comm = rt.dependency_get()
        assert comm.order == 6
        placement = rt.affinity_compute()
        assert len(placement.thread_to_pu) == 6
        with pytest.raises(ORWLError):
            # affinity_set before threads exist (run not called)
            rt.affinity_set()

    def test_dependency_matrix_contents(self):
        rt = pipeline_runtime(fig2_machine(), n=4)
        rt.schedule()
        comm = rt.dependency_get()
        raw = comm.raw
        # task i reads loc of i-1: entry [i, i-1] = 4096 bytes
        for i in range(1, 4):
            assert raw[i, i - 1] == 4096.0
        assert raw[0].sum() == 0.0  # task 0 reads nothing


class TestSplitReaders:
    def test_split_traffic_fractions(self):
        rt = Runtime(fig2_machine(), affinity=False)
        owner = rt.task("owner")
        loc = owner.location("big", 1 << 20)
        readers = [rt.task(f"r{i}") for i in range(4)]
        handles = split_readers(loc, [t.main_op for t in readers])
        assert all(h.traffic == (1 << 20) / 4 for h in handles)

    def test_split_rejects_empty(self):
        rt = Runtime(fig2_machine(), affinity=False)
        owner = rt.task("owner")
        loc = owner.location("big", 64)
        with pytest.raises(ORWLError):
            split_readers(loc, [])

    def test_split_readers_coalesce_at_runtime(self):
        """All split readers of one iteration read concurrently."""
        rt = Runtime(fig2_machine(), affinity=False)
        owner = rt.task("owner")
        loc = owner.location("big", 1 << 16)
        hw = owner.write_handle(loc, iterative=True)
        iters = 3
        concurrent = []

        def owner_body(op):
            for _ in range(iters):
                yield from hw.acquire()
                yield hw.touch()
                hw.release()

        owner.set_body(owner_body)
        readers = [rt.task(f"r{i}") for i in range(4)]
        active = [0]
        handles = split_readers(loc, [t.main_op for t in readers])
        for t, h in zip(readers, handles):

            def body(op, h=h):
                for _ in range(iters):
                    yield from h.acquire()
                    active[0] += 1
                    concurrent.append(active[0])
                    yield h.touch()
                    active[0] -= 1
                    h.release()

            t.set_body(body)
        rt.run()
        assert max(concurrent) > 1  # readers overlapped


class TestRingAndContention:
    def test_ring_of_writers_and_readers(self):
        """Ring topology (matmul-style) runs to completion."""
        rt = Runtime(smp20e7(), affinity=True)
        n, phases = 8, 8
        tasks = [rt.task(f"r{i}") for i in range(n)]
        locs = [t.location("slot", 8192) for t in tasks]
        for i, t in enumerate(tasks):
            own = t.write_handle(locs[i], iterative=True)
            prev = t.read_handle(locs[(i - 1) % n], iterative=True)

            def body(op, own=own, prev=prev):
                for k in range(phases):
                    yield from own.acquire()
                    yield own.touch()
                    yield Compute(1e5)
                    own.release()
                    if k < phases - 1:
                        yield from prev.acquire()
                        yield prev.touch()
                        prev.release()

            t.set_body(body)
        res = rt.run()
        assert res.seconds > 0

    def test_many_readers_one_writer(self):
        rt = Runtime(fig2_machine(), affinity=False)
        owner = rt.task("w")
        loc = owner.location("shared", 4096)
        hw = owner.write_handle(loc, iterative=True)
        iters = 4

        def wbody(op):
            for _ in range(iters):
                yield from hw.acquire()
                yield hw.touch()
                hw.release()

        owner.set_body(wbody)
        for i in range(6):
            t = rt.task(f"r{i}")
            hr = t.read_handle(loc, iterative=True)

            def rbody(op, hr=hr):
                for _ in range(iters):
                    yield from hr.acquire()
                    yield hr.touch()
                    hr.release()

            t.set_body(rbody)
        res = rt.run()
        assert res.seconds > 0


class TestDataMode:
    def test_data_travels_through_locations(self):
        rt = Runtime(fig2_machine(), affinity=False)
        a, b = rt.task("a"), rt.task("b")
        loc = a.location("chan", 64)
        hw = a.write_handle(loc, iterative=True)
        hr = b.read_handle(loc, iterative=True)
        received = []

        def writer(op):
            for i in range(3):
                yield from hw.acquire()
                hw.store(np.array([i, i * 10]))
                hw.release()

        def reader(op):
            for _ in range(3):
                yield from hr.acquire()
                received.append(hr.map().copy())
                hr.release()

        a.set_body(writer)
        b.set_body(reader)
        rt.run()
        assert [list(r) for r in received] == [[0, 0], [1, 10], [2, 20]]
