"""Direct unit tests for the OS scheduler models."""

import pytest

from repro.errors import SimulationError
from repro.sim import SimMachine, SimObserver, YieldCPU
from repro.sim.memory import MemorySystem
from repro.sim.params import CostModel
from repro.sim.process import Compute, SimThread, Touch
from repro.sim.scheduler import OSScheduler
from repro.topology import (
    TopologySpec,
    build_topology,
    fig2_machine,
    smp12e5,
    smp20e7,
)
from repro.util.bitmap import Bitmap
from repro.util.rng import make_rng
from tests.harness.sched_oracle import drive, skewed_machine


def make_sched(topo=None, policy=None, **kw):
    topo = topo or fig2_machine()
    mem = MemorySystem(topo, CostModel())
    return OSScheduler(topo, mem, policy=policy, **kw)


def thread(tid=0, cpuset=None, last_pu=None):
    t = SimThread(tid=tid, name=f"t{tid}", gen=iter([]), cpuset=cpuset)
    t.last_pu = last_pu
    return t


class TestOccupancy:
    def test_occupy_release_cycle(self):
        s = make_sched()
        t = thread()
        s.occupy(3, t)
        assert not s.is_free(3)
        assert s.thread_on(3) is t
        s.release(3)
        assert s.is_free(3)

    def test_double_occupy_rejected(self):
        s = make_sched()
        s.occupy(0, thread(0))
        with pytest.raises(SimulationError):
            s.occupy(0, thread(1))

    def test_release_idle_rejected(self):
        with pytest.raises(SimulationError):
            make_sched().release(0)

    def test_free_pus_shrink(self):
        s = make_sched()
        n = len(s.free_pus)
        s.occupy(0, thread())
        assert len(s.free_pus) == n - 1


class TestPlacement:
    def test_bound_thread_stays_in_cpuset(self):
        s = make_sched()
        t = thread(cpuset=Bitmap([5, 6]))
        assert s.place(t) == 5
        s.occupy(5, thread(9))
        assert s.place(t) == 6
        s.occupy(6, thread(8))
        assert s.place(t) is None

    def test_bound_thread_prefers_last(self):
        s = make_sched()
        t = thread(cpuset=Bitmap([5, 6]), last_pu=6)
        assert s.place(t) == 6

    def test_sticky_unbound(self):
        s = make_sched(policy="consolidate")
        t = thread(last_pu=20)
        assert s.place(t) == 20

    def test_first_placement_consolidate_starts_node0(self):
        s = make_sched(smp12e5(), policy="consolidate")
        assert s.place(thread()) == 0

    def test_first_placement_spread_distributes(self):
        s = make_sched(smp20e7(), policy="spread")
        t0, t1 = thread(0), thread(1)
        p0 = s.place(t0)
        s.occupy(p0, t0)
        p1 = s.place(t1)
        assert s.memory.numa_of_pu(p0) != s.memory.numa_of_pu(p1)

    def test_rebalance_consolidate_picks_lowest(self):
        s = make_sched(policy="consolidate")
        t = thread(last_pu=9)
        assert s.place(t, rebalance=True) == 0

    def test_rebalance_random_migration(self):
        s = make_sched(policy="consolidate", rng=make_rng(0), migrate_prob=1.0)
        t = thread(last_pu=9)
        # With migrate_prob=1 a rebalance never lands on last_pu.
        for _ in range(10):
            assert s.place(t, rebalance=True) != 9

    def test_wakeup_migration_probability(self):
        s = make_sched(policy="consolidate", rng=make_rng(0),
                       wakeup_migrate_prob=1.0)
        t = thread(last_pu=9)
        # Always rebalanced on wake: policy pick = PU 0, not 9.
        assert s.place(t) == 0

    def test_no_free_pu_returns_none(self):
        s = make_sched()
        for pu in list(s.free_pus):
            s.occupy(pu, thread(pu))
        assert s.place(thread(99)) is None

    def test_unknown_policy_rejected(self):
        with pytest.raises(SimulationError):
            make_sched(policy="chaotic")

    def test_policy_from_topology_attr(self):
        assert make_sched(smp20e7()).policy == "spread"
        assert make_sched(smp12e5()).policy == "consolidate"


class TestAgainstListScan:
    """The mask-based place() against the list-scan oracle it replaced."""

    MACHINES = {"fig2": fig2_machine, "smp12e5": smp12e5, "smp20e7": smp20e7,
                "skewed": skewed_machine}

    @pytest.mark.parametrize("probs", [(0.0, 0.0), (0.3, 0.12), (1.0, 1.0)],
                             ids=["off", "default", "always"])
    @pytest.mark.parametrize("policy", OSScheduler.POLICIES)
    @pytest.mark.parametrize("machine", sorted(MACHINES))
    def test_same_pu_and_rng_every_call(self, machine, policy, probs):
        migrate, wakeup = probs
        stats = drive(self.MACHINES[machine](), policy=policy,
                      migrate_prob=migrate, wakeup_migrate_prob=wakeup,
                      seed=len(machine) * 31 + len(policy), steps=4000)
        # The sequence reached every branch class it is meant to cover.
        assert stats.decisions > 2500
        assert stats.saturated > 0 and stats.none > stats.saturated
        assert stats.moved > 0
        assert 0 < stats.rebalanced < stats.decisions
        assert set(stats.by_cpuset) == {"unbound", "single", "multi"}


class TestOnePassDispatch:
    """A dispatch tries each ready thread at most once and stops once no PU
    is free, leaving the queue as a full retry would: PUs only get busier
    inside a dispatch, and a place() that finds none draws no random
    number, so a retry could never place anyone."""

    #: Ready order at run start: (name, bound PU or None). On 4 PUs, t0
    #: takes PU 0, t1 and t3 find it busy, t2 and t4 take two more PUs
    #: and t5 the last one, in the middle of the queue; t6-t9 are never
    #: tried.
    THREADS = (("t0", 0), ("t1", 0), ("t2", None), ("t3", 0), ("t4", None),
               ("t5", None), ("t6", 1), ("t7", None), ("t8", 3), ("t9", None))

    @staticmethod
    def run(core: str, policy: str):
        topo = build_topology(TopologySpec(
            name="dispatch4", numa_per_group=2, cores_per_socket=2,
        ))
        obs = SimObserver()
        machine = SimMachine(topo, core=core, os_policy=policy, seed=3,
                             observer=obs)
        buf = machine.allocate(1 << 16, "b")

        queues = []

        def body(k):
            if not queues:
                # The first thread to run sees the queue the first
                # dispatch left.
                queues.append([t.name for t in machine._ready])
            for i in range(4):
                yield Compute(3e7 + 1e6 * k)  # past one quantum: preempts
                yield Touch(buf, 4096, write=bool(i % 2))
                yield YieldCPU()

        for k, (name, pu) in enumerate(TestOnePassDispatch.THREADS):
            machine.add_thread(name, body(k), cpuset=(
                None if pu is None else Bitmap.single(pu)
            ))
        sched = machine.scheduler
        real_place = sched.place
        calls = []  # (dispatch index, thread, free PUs at the call)

        def place(thread, *, rebalance=False):
            # Each dispatch adds one queue-depth sample before placing.
            calls.append((sum(obs.queue_depths), thread, len(sched.free_pus)))
            return real_place(thread, rebalance=rebalance)

        sched.place = place
        machine.run()
        return machine, calls, queues[0]

    @pytest.mark.parametrize("policy", OSScheduler.POLICIES)
    @pytest.mark.parametrize("core", ["object", "batched"])
    def test_one_pass_and_full_retry_order(self, core, policy):
        machine, calls, first_queue = self.run(core, policy)
        assert all(t.state == "done" for t in machine.threads)
        assert len(calls) > 3 * len(self.THREADS)
        # Never asked while no PU is free.
        assert all(free for _, _, free in calls)
        # Each ready thread tried at most once per dispatch.
        tries = [(d, t.tid) for d, t, _ in calls]
        assert len(tries) == len(set(tries))
        # The first dispatch tried t0-t5 only; its failures (t1, t3) lead
        # the queue and the untried tail follows in order — the order a
        # full retry, which would fail every one of them again, leaves.
        first = [t.name for d, t, _ in calls if d == calls[0][0]]
        assert first == ["t0", "t1", "t2", "t3", "t4", "t5"]
        assert first_queue == ["t1", "t3", "t6", "t7", "t8", "t9"]
