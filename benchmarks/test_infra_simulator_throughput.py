"""Infrastructure benchmark: simulator event throughput.

Not a paper experiment — a regression guard for the substrate itself:
the discrete-event engine must sustain enough events/second that the
paper-scale regenerations stay in minutes. This is the figure to watch
when touching sim/machine internals. The ring runs on the batched core
by default; ``test_simcore_smoke`` pins that both cores still run the
same workload to the same answer without the benchmark fixture, so it
is cheap enough for any pytest invocation.
"""

import pytest

from repro.sim import Compute, SimMachine, Touch, Wait
from repro.topology import smp12e5
from repro.util.bitmap import Bitmap


def run_ring(core: str = "batched") -> tuple[int, float, dict]:
    machine = SimMachine(smp12e5(), core=core)
    bufs = [machine.allocate(1 << 16, f"b{i}") for i in range(32)]
    events = [machine.event(f"e{i}") for i in range(32)]

    def stage(i):
        nxt = events[(i + 1) % 32]
        for _ in range(50):
            yield Compute(1e4)
            yield Touch(bufs[i], 4096, write=True)
            nxt.signal()
            yield Wait(events[i])

    for i in range(32):
        machine.add_thread(f"s{i}", stage(i), cpuset=Bitmap.single(2 * i))
    # Prime the ring so it can spin.
    events[0].signal()
    machine.run()
    return (
        machine.engine.events_processed,
        machine.elapsed_cycles,
        machine.total_counters().snapshot(),
    )


def test_engine_event_throughput(benchmark):
    events = benchmark.pedantic(lambda: run_ring()[0], rounds=3, iterations=1)
    print(f"\nprocessed {events} engine events per run")
    assert events > 2_000


@pytest.mark.simcore
def test_simcore_smoke():
    """Both cores drain the ring to identical counters/clock/event count."""
    batched = run_ring("batched")
    obj = run_ring("object")
    assert batched == obj
    assert batched[0] > 2_000


def test_lock_handoff_throughput(benchmark):
    """ORWL lock handoffs per second — control-thread path included."""
    from repro.orwl import Runtime
    from repro.topology import smp20e7_4s

    def run():
        rt = Runtime(smp20e7_4s(), affinity=True, seed=1)
        tasks = [rt.task(f"t{i}") for i in range(16)]
        locs = [t.location("l", 4096) for t in tasks]
        iters = 40
        for i, t in enumerate(tasks):
            hw = t.write_handle(locs[i], iterative=True)
            hr = t.read_handle(locs[i - 1], iterative=True)

            def body(op, hw=hw, hr=hr):
                for _ in range(iters):
                    yield from hw.acquire()
                    hw.release()
                    yield from hr.acquire()
                    hr.release()

            t.set_body(body)
        res = rt.run()
        return res.machine.engine.events_processed

    events = benchmark.pedantic(run, rounds=3, iterations=1)
    print(f"\n{events} events for 16 tasks x 40 iterations x 2 locks")
    assert events > 2_000
