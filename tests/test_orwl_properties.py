"""Property-based tests on the ORWL runtime.

Random DAG-structured programs must always complete (deadlock-freeness
for per-iteration-acyclic graphs), with every operation performing all of
its iterations, regardless of placement, machine or seed. Every handle
reuses one grant event, which is sound only while its grants and
acquires strictly alternate; the apps and the differential program
family are run under a checking FIFO to show that they do.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze.probe import _handle_waiting_on
from repro.errors import DeadlockError
from repro.orwl import Runtime
from repro.orwl.location import LocationFIFO, Request
from repro.sim.process import Compute, SimEvent, Wait
from repro.topology import TopologySpec, build_topology, fig2_machine, smp12e5_4s
from tests.harness.difftest import ProgramSpec, Taps, build_runtime, generate_programs


def dag_program(rt, n_tasks, edges, iters, completions):
    """Tasks 0..n-1; edge (a, b) with a < b: b reads a's location."""
    tasks = [rt.task(f"t{i}") for i in range(n_tasks)]
    locs = [t.location("out", 4096) for t in tasks]
    writers = {i: tasks[i].write_handle(locs[i], iterative=True)
               for i in range(n_tasks)}
    readers: dict[int, list] = {i: [] for i in range(n_tasks)}
    for a, b in edges:
        readers[b].append(tasks[b].read_handle(locs[a], iterative=True))

    for i, t in enumerate(tasks):

        def body(op, i=i):
            for _ in range(iters):
                yield from writers[i].acquire()
                yield Compute(1e4)
                writers[i].release()
                for h in readers[i]:
                    yield from h.acquire()
                    yield h.touch(64)
                    h.release()
            completions.append(i)

        t.set_body(body)


edge_lists = st.builds(
    lambda n, pairs: (n, sorted({(min(a, b % n), max(a, b % n))
                                 for a, b in pairs
                                 if min(a, b % n) != max(a, b % n)
                                 and min(a, b % n) < n and max(a, b % n) < n})),
    st.integers(min_value=2, max_value=10),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=9),
                  st.integers(min_value=0, max_value=97)),
        max_size=16,
    ),
)


class TestDeadlockFreedom:
    @settings(max_examples=30, deadline=None)
    @given(edge_lists, st.integers(min_value=1, max_value=4),
           st.booleans(), st.integers(min_value=0, max_value=3))
    def test_random_dags_complete(self, spec, iters, affinity, seed):
        n, edges = spec
        rt = Runtime(fig2_machine(), affinity=affinity, seed=seed)
        completions = []
        dag_program(rt, n, edges, iters, completions)
        rt.run()
        assert sorted(completions) == list(range(n))

    @settings(max_examples=10, deadline=None)
    @given(edge_lists)
    def test_dags_complete_on_ht_machine(self, spec):
        n, edges = spec
        rt = Runtime(smp12e5_4s(), affinity=True, seed=1)
        completions = []
        dag_program(rt, n, edges, 2, completions)
        rt.run()
        assert len(completions) == n

    def test_oversubscribed_program_completes(self):
        """More operations than PUs: OS time-shares, still completes."""
        topo = build_topology(
            TopologySpec(name="mini", numa_per_group=1, cores_per_socket=2)
        )
        rt = Runtime(topo, affinity=False, seed=0)
        completions = []
        dag_program(rt, 8, [(i, i + 1) for i in range(7)], 3, completions)
        rt.run()
        assert len(completions) == 8

    def test_oversubscribed_with_affinity_completes(self):
        topo = build_topology(
            TopologySpec(name="mini", numa_per_group=1, cores_per_socket=2)
        )
        rt = Runtime(topo, affinity=True, seed=0)
        completions = []
        dag_program(rt, 6, [(0, 1), (1, 2), (0, 3)], 2, completions)
        rt.run()
        assert len(completions) == 6


class TestFailureInjection:
    def test_missing_release_deadlocks_cleanly(self):
        """A task that forgets to release blocks its reader; the engine
        reports a DeadlockError naming the stuck thread."""
        rt = Runtime(fig2_machine(), affinity=False)
        a, b = rt.task("a"), rt.task("b")
        loc = a.location("out", 64)
        hw = a.write_handle(loc, iterative=True)
        hr = b.read_handle(loc, iterative=True)

        def writer(op):
            yield from hw.acquire()
            # forgot hw.release()

        def reader(op):
            yield from hr.acquire()
            hr.release()

        a.set_body(writer)
        b.set_body(reader)
        with pytest.raises(DeadlockError, match="b"):
            rt.run()

    def test_crashing_body_propagates_with_context(self):
        rt = Runtime(fig2_machine(), affinity=False)
        t = rt.task("boom")
        loc = t.location("out", 64)
        hw = t.write_handle(loc, iterative=True)

        def body(op):
            yield from hw.acquire()
            raise ValueError("injected fault")

        t.set_body(body)
        with pytest.raises(ValueError, match="injected fault"):
            rt.run()

    def test_double_acquire_rejected(self):
        from repro.errors import HandleStateError

        rt = Runtime(fig2_machine(), affinity=False)
        t = rt.task("a")
        loc = t.location("out", 64)
        hw = t.write_handle(loc, iterative=True)

        def body(op):
            yield from hw.acquire()
            yield from hw.acquire()  # misuse

        t.set_body(body)
        with pytest.raises(HandleStateError):
            rt.run()

    def test_cross_iteration_cycle_detected_as_deadlock(self):
        """Two tasks each read the other *before* writing: a true cycle
        the FIFO cannot resolve — must be reported, not hang."""
        rt = Runtime(fig2_machine(), affinity=False)
        a, b = rt.task("a"), rt.task("b")
        la, lb = a.location("la", 64), b.location("lb", 64)
        wa = a.write_handle(la, iterative=True)
        ra = a.read_handle(lb, iterative=True)
        ra.init_rank = -1  # force the read to precede b's write
        wb = b.write_handle(lb, iterative=True)
        rb = b.read_handle(la, iterative=True)
        rb.init_rank = -1

        def body_a(op):
            # reads b's data, holds it, then writes own: cycle with b.
            yield from ra.acquire()
            yield from wa.acquire()
            wa.release()
            ra.release()

        def body_b(op):
            yield from rb.acquire()
            yield from wb.acquire()
            wb.release()
            rb.release()

        a.set_body(body_a)
        b.set_body(body_b)
        # Reads precede writes at iteration 0, so this specific pattern
        # resolves; flip ranks to force the deadlock.
        ra.init_rank = 2
        rb.init_rank = 2
        with pytest.raises(DeadlockError):
            rt.run()


# -- the alternation the shared grant event rests on ------------------------

CORES = ("object", "batched")

#: The three paper applications at small sizes (difftest's config keys).
SMALL_APPS = (
    ("lk23", (("iterations", 3), ("n", 16), ("n_threads", 8))),
    ("matmul", (("n", 24), ("n_tasks", 6))),
    ("video", (("ccl_split", 2), ("frames", 2), ("gmm_split", 2),
               ("n_dilate", 2), ("resolution", "HD"))),
)

#: The ORWL specs of the differential family (the chain shapes run on a
#: bare SimMachine and hold no handles).
FAMILY = [s for s in generate_programs(16) if s.app != "chain"]


def run_checking_alternation(monkeypatch, spec: ProgramSpec, core: str) -> int:
    """Run *spec* with every FIFO grant checked; returns the grant count.

    A grant signals the request's handle's one event. It must find the
    count at 0 (the previous grant was consumed by an acquire) and leave
    it at 1: wakeups are deferred to the engine, so nothing can consume
    it inside ``advance``.
    """
    grants = 0
    advance = LocationFIFO.advance

    def checked_advance(fifo):
        nonlocal grants
        before = [req.handle.event.count for req in fifo.queue]
        activated = advance(fifo)
        # advance() pops the activated group off the queue's head.
        for req, count in zip(activated, before):
            event = req.handle.event
            assert count == 0, f"{event.name!r} granted at count {count}"
            assert event.count == 1, event.name
        grants += len(activated)
        return activated

    monkeypatch.setattr(LocationFIFO, "advance", checked_advance)
    rt = build_runtime(spec, core, Taps())
    rt.run()
    for op in rt.operations:
        for h in op.all_handles:
            assert h.event.count in (0, 1), h.event.name
            assert h.event.waiters == [], h.event.name
    return grants


class TestGrantAlternation:
    @pytest.mark.parametrize("core", CORES)
    @pytest.mark.parametrize("affinity", [False, True])
    @pytest.mark.parametrize("app,config", SMALL_APPS,
                             ids=[app for app, _ in SMALL_APPS])
    def test_paper_apps(self, monkeypatch, app, config, affinity, core):
        spec = ProgramSpec(index=0, app=app, config=config,
                           topology="smp12e5_4s", affinity=affinity, seed=3,
                           tap_mode="off")
        assert run_checking_alternation(monkeypatch, spec, core) > 0

    @pytest.mark.parametrize("core", CORES)
    @pytest.mark.parametrize("spec", FAMILY, ids=lambda s: f"{s.index}-{s.app}")
    def test_difftest_family(self, monkeypatch, spec, core):
        assert run_checking_alternation(monkeypatch, spec, core) > 0

    def test_family_covers_every_app(self):
        assert {s.app for s in FAMILY} == {"lk23", "matmul", "video"}


# -- what a hand-off constructs --------------------------------------------------


class TestHandOffAllocation:
    """An iteration constructs one Request per iterative handle and no
    event or op: the grant events, the acquire waits and the control
    threads' ops are made once, however long the program runs."""

    COUNTED = (SimEvent, Wait, Compute, Request)

    @classmethod
    def constructions(cls, monkeypatch, core: str, iterations: int) -> dict:
        counts = dict.fromkeys((c.__name__ for c in cls.COUNTED), 0)
        with monkeypatch.context() as patch:
            for klass in cls.COUNTED:
                def counted(self, *args, _init=klass.__init__,
                            _name=klass.__name__, **kwargs):
                    counts[_name] += 1
                    _init(self, *args, **kwargs)

                patch.setattr(klass, "__init__", counted)
            cls.run_ring(core, iterations)
        return counts

    @staticmethod
    def run_ring(core: str, iterations: int) -> None:
        """Two tasks, each writing its own location and reading the other's."""
        rt = Runtime(fig2_machine(), affinity=True, core=core)
        a, b = rt.task("a"), rt.task("b")
        la, lb = a.location("la", 4096), b.location("lb", 4096)
        pairs = ((a.write_handle(la, iterative=True),
                  b.read_handle(la, iterative=True)),
                 (b.write_handle(lb, iterative=True),
                  a.read_handle(lb, iterative=True)))
        work = Compute(1e4)  # the body's own op, made once like the runtime's

        def body(op, hw, hr):
            for _ in range(iterations):
                yield from hw.acquire()
                yield work
                hw.release()
                yield from hr.acquire()
                hr.release()

        a.set_body(lambda op: body(op, *pairs[0]))
        b.set_body(lambda op: body(op, *pairs[1]))
        rt.run()

    @pytest.mark.parametrize("core", CORES)
    def test_counts_do_not_grow_with_iterations(self, monkeypatch, core):
        short = self.constructions(monkeypatch, core, 2)
        long = self.constructions(monkeypatch, core, 20)
        requests = long.pop("Request") - short.pop("Request")
        assert long == short
        # One Request per hand-off: 18 more iterations of 4 handles.
        assert requests == 18 * 4


# -- diagnostics that name the grant event ------------------------------------


class TestHandOffDiagnostics:
    @pytest.mark.parametrize("core", CORES)
    def test_deadlock_names_the_handle_without_iteration(self, core):
        """A writer that skips its third release leaves the reader blocked
        in its third iteration; the error names the reader's handle."""
        rt = Runtime(fig2_machine(), affinity=False, core=core)
        a, b = rt.task("a"), rt.task("b")
        loc = a.location("out", 64)
        hw = a.write_handle(loc, iterative=True)
        hr = b.read_handle(loc, iterative=True)

        def writer(op):
            for k in range(3):
                yield from hw.acquire()
                yield Compute(1e3)
                if k < 2:
                    hw.release()

        reads = []

        def reader(op):
            for k in range(3):
                yield from hr.acquire()
                reads.append(k)
                hr.release()

        a.set_body(writer)
        b.set_body(reader)
        with pytest.raises(DeadlockError) as info:
            rt.run()
        assert reads == [0, 1]
        assert "b/op0(blocked on 'out:b/op0:r')" in str(info.value)

    def test_probe_maps_a_blocked_op_to_its_handle(self):
        rt = Runtime(fig2_machine(), affinity=False)
        a, b = rt.task("a"), rt.task("b")
        la, lb = a.location("la", 64), b.location("lb", 64)
        hw = a.write_handle(la, iterative=True)
        hr = a.read_handle(lb, iterative=True)
        b.write_handle(lb, iterative=True)
        for t in (a, b):
            t.set_body(lambda op: None)
        rt.schedule()
        op = a.main_op

        gen = hw.acquire()
        wait = next(gen)
        assert isinstance(wait, Wait) and wait.event is hw.event
        assert _handle_waiting_on(op, wait.event) is hw
        assert _handle_waiting_on(op, hr.event) is hr
        assert _handle_waiting_on(op, rt.locations[0].work) is None
        # The next iteration's request waits on the same event.
        next(gen, None)
        hw.release()
        assert next(hw.acquire()) is wait
        assert _handle_waiting_on(op, wait.event) is hw
