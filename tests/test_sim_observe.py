"""Unit and schema tests for repro.sim.observe.

Covers the metrics registry (get-or-create, label keys, kind conflicts),
the ring trace (overflow accounting, per-kind countdown sampling,
oldest-first ordering), the golden Chrome ``trace_event`` schema
(stable field sets, monotonic timestamps, pid/tid = PU/thread), and the
observer lifecycle on a real machine run — including cross-core
snapshot parity.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.simcore

from repro.errors import SimulationError
from repro.sim import Compute, SimMachine, Touch, Wait
from repro.sim.observe import (
    KIND_BY_NAME,
    TR_BUSY,
    TR_READY,
    TR_RUN,
    TRACE_KINDS,
    MetricsRegistry,
    RingTrace,
    SimObserver,
)
from repro.sim.trace import TAGS
from repro.topology import smp12e5
from repro.util.bitmap import Bitmap


# -- registry -----------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_get_or_create_and_snapshot_key(self):
        reg = MetricsRegistry()
        c = reg.counter("hits", pu=3)
        c.inc()
        reg.counter("hits", pu=3).inc(2.5)
        assert c.value == 3.5
        assert reg.snapshot() == {"hits{pu=3}": 3.5}

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        reg.counter("x", a=1, b=2).inc()
        reg.counter("x", b=2, a=1).inc()
        assert reg.snapshot() == {"x{a=1,b=2}": 2.0}

    def test_counter_cannot_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(SimulationError, match="cannot decrease"):
            reg.counter("c").inc(-1)

    def test_kind_conflict_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("n")
        with pytest.raises(SimulationError, match="already registered"):
            reg.gauge("n")

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("depth", bounds=(1, 4))
        h.observe(0)
        h.observe(4, n=3)
        h.observe(100)
        d = h.to_dict()
        assert d["count"] == 5
        assert d["sum"] == 112.0
        assert d["buckets"] == {"le_1": 1, "le_4": 3, "le_inf": 1}

    def test_snapshot_is_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z")
        reg.counter("a")
        assert list(reg.snapshot()) == ["a", "z"]


# -- ring ---------------------------------------------------------------------


class TestRingTrace:
    def test_overflow_keeps_newest_and_counts_dropped(self):
        ring = RingTrace(capacity=4)
        for i in range(10):
            assert ring.add(TR_READY, float(i), i, None)
        assert len(ring) == 4
        assert ring.recorded == 10
        assert ring.dropped == 6
        # Oldest-first; pu None normalized to -1.
        assert ring.records() == [
            (TR_READY, float(i), i, -1) for i in range(6, 10)
        ]

    def test_sampling_keeps_first_then_every_nth(self):
        ring = RingTrace(capacity=64, sample={"busy": 4})
        kept = [ring.add(TR_BUSY, float(i), 0, 0) for i in range(10)]
        assert kept == [i % 4 == 0 for i in range(10)]
        assert [r[1] for r in ring.records()] == [0.0, 4.0, 8.0]

    def test_sampling_is_per_kind(self):
        ring = RingTrace(capacity=64, sample={"busy": 2})
        for i in range(4):
            ring.add(TR_BUSY, float(i), 0, 0)
            ring.add(TR_RUN, float(i), 0, 0)
        kinds = [r[0] for r in ring.records()]
        assert kinds.count(TR_RUN) == 4
        assert kinds.count(TR_BUSY) == 2

    def test_period_zero_disables_a_kind(self):
        ring = RingTrace(capacity=8, sample={"busy": 0})
        assert not ring.add(TR_BUSY, 0.0, 0, 0)
        assert ring.recorded == 0

    def test_kind_vocabulary_is_the_trace_tags_plus_busy(self):
        assert TRACE_KINDS == TAGS + ("busy",)
        assert KIND_BY_NAME["busy"] == TR_BUSY

    def test_bad_arguments_rejected(self):
        with pytest.raises(SimulationError, match="capacity"):
            RingTrace(capacity=0)
        with pytest.raises(SimulationError, match="unknown trace kind"):
            RingTrace(sample={"bogus": 1})
        with pytest.raises(SimulationError, match="period"):
            RingTrace(sample={"busy": -1})


# -- a tiny observed run ------------------------------------------------------


def observed_run(core: str, *, trace=True):
    machine = SimMachine(smp12e5(), core=core)
    obs = SimObserver(trace=RingTrace(capacity=4096) if trace else False)
    machine.attach_observer(obs)
    bufs = [machine.allocate(1 << 14, f"b{i}") for i in range(4)]
    events = [machine.event(f"e{i}") for i in range(4)]

    def stage(i):
        nxt = events[(i + 1) % 4]
        for _ in range(6):
            yield Compute(5e3)
            yield Touch(bufs[i], 2048, write=True)
            nxt.signal()
            yield Wait(events[i])

    for i in range(4):
        machine.add_thread(f"s{i}", stage(i), cpuset=Bitmap.single(2 * i))
    events[0].signal()
    machine.run()
    return machine, obs


class TestObserverLifecycle:
    def test_attach_after_run_raises(self):
        machine, _ = observed_run("batched")
        with pytest.raises(SimulationError, match="after run"):
            machine.attach_observer(SimObserver())

    def test_second_observer_raises(self):
        machine = SimMachine(smp12e5())
        machine.attach_observer(SimObserver())
        with pytest.raises(SimulationError):
            machine.attach_observer(SimObserver())

    def test_observer_is_single_use(self):
        _, obs = observed_run("batched")
        with pytest.raises(SimulationError, match="single-use"):
            obs.begin(SimMachine(smp12e5()))

    def test_chrome_trace_requires_a_ring(self):
        _, obs = observed_run("batched", trace=False)
        with pytest.raises(SimulationError, match="no ring trace"):
            obs.chrome_trace()

    def test_fold_fills_meta_and_registry(self):
        machine, obs = observed_run("batched")
        assert obs.meta["core"] == "batched"
        assert obs.meta["threads"] == 4
        snap = obs.snapshot()
        assert snap["sim_events_processed_total"] == \
            machine.engine.events_processed
        assert snap["sim_elapsed_cycles"] == machine.engine.now
        busy = sum(
            v for k, v in snap.items()
            if k.startswith("sim_pu_busy_cycles_total")
        )
        assert busy == pytest.approx(
            sum(t.counters.busy_cycles for t in machine.threads)
        )
        assert snap["sim_sched_queue_depth"]["count"] > 0
        assert snap["sim_trace_records_total"] == obs.ring.recorded

    def test_snapshot_parity_across_cores(self):
        snaps = {}
        for core in ("object", "batched"):
            _, obs = observed_run(core)
            snaps[core] = {
                k: v for k, v in obs.snapshot().items()
                if not k.startswith("sim_events_by_kind_total")
            }
        assert snaps["object"] == snaps["batched"]

    def test_event_kind_split_only_on_flat_cores(self):
        # The batched core tallies per-kind event counts in its drain
        # loop; the object path does not.
        for core, expect in (("object", 0), ("batched", 1)):
            _, obs = observed_run(core)
            keys = [
                k for k in obs.snapshot()
                if k.startswith("sim_events_by_kind_total")
            ]
            assert (len(keys) > 0) == bool(expect), core


# -- Chrome trace_event schema ------------------------------------------------


INSTANT_FIELDS = {"name", "ph", "ts", "pid", "tid", "s", "args"}
META_FIELDS = {"name", "ph", "ts", "pid", "tid", "args"}


class TestChromeSchema:
    @pytest.fixture(scope="class")
    def trace(self):
        machine, obs = observed_run("batched")
        return machine, obs.chrome_trace()

    def test_top_level_shape(self, trace):
        _, doc = trace
        assert set(doc) == {"traceEvents", "displayTimeUnit", "metadata"}
        assert doc["displayTimeUnit"] == "ms"
        assert set(doc["metadata"]) == {"recorded", "dropped", "capacity"}

    def test_stable_field_sets(self, trace):
        _, doc = trace
        phs = set()
        for ev in doc["traceEvents"]:
            phs.add(ev["ph"])
            if ev["ph"] == "i":
                assert set(ev) == INSTANT_FIELDS
                assert ev["s"] == "t"
                assert ev["name"] in TRACE_KINDS
                assert set(ev["args"]) == {"cycles"}
            else:
                assert ev["ph"] == "M"
                assert set(ev) == META_FIELDS
                assert ev["name"] in ("process_name", "thread_name")
        assert phs == {"i", "M"}

    def test_instants_monotonic_nonnegative_ts(self, trace):
        _, doc = trace
        ts = [e["ts"] for e in doc["traceEvents"] if e["ph"] == "i"]
        assert ts and ts[0] >= 0.0
        assert all(a <= b for a, b in zip(ts, ts[1:]))

    def test_pid_tid_map_to_pu_and_thread(self, trace):
        machine, doc = trace
        valid_pus = {p.os_index for p in machine.topology.pus} | {-1}
        valid_tids = {t.tid for t in machine.threads}
        names = {t.tid: t.name for t in machine.threads}
        thread_meta = {}
        for ev in doc["traceEvents"]:
            if ev["ph"] == "i":
                assert ev["pid"] in valid_pus
                assert ev["tid"] in valid_tids
            elif ev["name"] == "thread_name":
                thread_meta[ev["tid"]] = ev["args"]["name"]
        for tid, label in thread_meta.items():
            if tid in names:
                assert label == names[tid]

    def test_ts_is_microseconds_of_virtual_time(self, trace):
        machine, doc = trace
        scale = 1e6 / machine.clock_hz
        for ev in doc["traceEvents"]:
            if ev["ph"] == "i":
                assert ev["ts"] == pytest.approx(
                    ev["args"]["cycles"] * scale
                )

    def test_identical_across_cores(self):
        docs = [
            observed_run(core)[1].chrome_trace()
            for core in ("object", "batched")
        ]
        assert docs[0] == docs[1]
