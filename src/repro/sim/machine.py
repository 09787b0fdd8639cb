"""The simulated machine: threads × PUs × caches × OS, under one clock.

:class:`SimMachine` is the façade the runtimes (ORWL, OpenMP-model) build
on. Usage::

    machine = SimMachine(smp12e5())
    buf = machine.allocate(1 << 20, "halo")
    done = machine.event("done")

    def worker():
        yield Compute(1e9)
        yield Touch(buf, write=True)
        done.signal()

    machine.add_thread("w0", worker(), cpuset=Bitmap.single(0))
    machine.run()
    machine.elapsed_seconds  # virtual wall-clock

Execution model: each thread is a generator; CPU-consuming ops (Compute,
Touch) occupy the thread's PU for a priced duration, chopped at the OS
timeslice so preemption, hyperthread contention and rebalancing are
re-evaluated at quantum boundaries. Blocking ops free the PU.

Two run-loop implementations share these semantics:

* the **batched core** (:meth:`_run_batched`, the default) — one flat
  interpreter over a calendar of scalar kind-coded events, with the
  Touch/Compute pricing inlined against the precomputed ``(accessor,
  home)`` cost table.
* the **object path** (``core="object"``) — the small methods below
  (`_step`, `_busy_done`, `_dispatch`, …) driven by closure events on
  :class:`Engine`. It is the readable reference oracle the equivalence
  tests compare against.

Observability works the same on both: ``SimMachine.monitors``,
``OSScheduler.on_place`` and a :class:`~repro.sim.observe.SimObserver`
(metrics registry + sampled ring trace) are instrumented natively in
each. Fixed-seed runs produce bit-identical counters and clocks on both
cores, with or without taps (``tests/test_sim_batched_equivalence.py``
and ``tests/test_sim_difftest.py`` prove it on the three paper
applications plus a generated program family). When editing one path,
mirror the other — the equivalence tests will catch any drift.

:meth:`run_window` drains events only up to a virtual-time horizon and
may be called repeatedly — the epoch primitive of the adaptive
controller (:mod:`repro.affinity`), which folds telemetry and may
rebind threads between windows; callbacks an outside driver puts on the
engine with ``engine.schedule_at`` between windows run in the window
that covers their timestamp. Events in flight at a horizon stay where
each core keeps them (the engine heap, the batched core's calendar)
until the next call; :attr:`SimMachine.pending` counts them.
"""

from __future__ import annotations

import heapq
import os
import weakref
from collections import deque

from repro.errors import DeadlockError, SimulationError
from repro.sim.cache import CacheSystem
from repro.sim.counters import Counters
from repro.sim.engine import EV_BUSY, EV_CALL, EV_DRAIN, EV_STEP, Engine
from repro.sim.memory import Buffer, MemorySystem
from repro.sim.observe import (
    KIND_BY_NAME,
    QUEUE_DEPTH_BUCKETS,
    TR_BLOCK,
    TR_BUSY,
    TR_CRASH,
    TR_DONE,
    TR_PREEMPT,
    TR_READY,
    TR_RUN,
    SimObserver,
)
from repro.sim.params import CostModel, SimLimits
from repro.sim.process import (
    Compute,
    SimEvent,
    SimThread,
    Spawn,
    ThreadGen,
    Touch,
    Wait,
    YieldCPU,
)
from repro.sim.scheduler import OSScheduler
from repro.topology.binding import validate_cpuset
from repro.topology.tree import Topology
from repro.util.bitmap import Bitmap
from repro.util.rng import BlockRng, make_rng

__all__ = ["SimMachine"]

#: topology -> {pu: [hyperthread sibling PUs]} (pure in the topology, and
#: topology presets are memoized — share across the many machines a sweep
#: builds instead of re-walking the tree per construction).
_SIBLING_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _sibling_tables(topology: Topology) -> dict[int, list[int]]:
    try:
        return _SIBLING_TABLES[topology]
    except KeyError:
        tables = {
            pu.os_index: [s.os_index for s in topology.siblings_of_pu(pu.os_index)]
            for pu in topology.pus
        }
        _SIBLING_TABLES[topology] = tables
        return tables


#: Op class -> dispatch code for the batched core. Subclasses of the op
#: types are resolved through isinstance once and then cached here, so
#: the hot dispatch is a single dict lookup.
_OP_CODE: dict[type, int] = {
    Touch: 0,
    Compute: 1,
    Wait: 2,
    Spawn: 3,
    YieldCPU: 4,
}
_OP_BASES = (Touch, Compute, Wait, Spawn, YieldCPU)

_INF = float("inf")


class SimMachine:
    """A virtual NUMA machine executing simulated threads."""

    #: Run-loop implementations selectable via the ``core`` kwarg.
    CORES = ("batched", "object")

    def __init__(
        self,
        topology: Topology,
        model: CostModel | None = None,
        *,
        os_policy: str | None = None,
        seed: int = 0,
        core: str = "batched",
        limits: SimLimits | None = None,
        observer: SimObserver | None = None,
        sanitize: bool | None = None,
    ) -> None:
        if core not in self.CORES:
            raise SimulationError(f"unknown core {core!r}; known: {self.CORES}")
        self.core = core
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "") == "1"
        #: Checked mode: attach the SimSanitizer's invariant taps during
        #: run() (repro.analyze.invariants). Default follows the
        #: REPRO_SANITIZE env var; strictly zero cost when off (one
        #: boolean test in run()).
        self.sanitize = bool(sanitize)
        #: The attached SimSanitizer instance, set by run() when
        #: sanitizing; None otherwise.
        self.sanitizer = None
        self.limits = limits or SimLimits()
        self.topology = topology
        self.model = model or CostModel()
        self.engine = Engine()
        self.memory = MemorySystem(topology, self.model)
        self.caches = CacheSystem(topology, self.model, self.memory)
        #: The machine's one random stream (OS jitter, wake-balance and
        #: churn draws, in call order), served from blocks.
        self._rng = BlockRng(make_rng(seed))
        self.scheduler = OSScheduler(
            topology,
            self.memory,
            policy=os_policy,
            rng=self._rng,
            migrate_prob=self.model.migrate_prob,
            wakeup_migrate_prob=self.model.wakeup_migrate_prob,
        )
        self.threads: list[SimThread] = []
        #: Dynamic-analysis monitors (see repro.analyze.dynamic). Duck
        #: typed: any of ``on_touch(thread, buffer, nbytes, write)``,
        #: ``on_block(thread, event)``, ``on_finish(thread)`` is called
        #: when present. Empty for normal runs — zero overhead.
        self.monitors: list = []
        #: Optional metrics/ring-trace observer (repro.sim.observe); works
        #: on both cores. Set here or via :meth:`attach_observer`.
        self.observer: SimObserver | None = observer
        #: Which run loop executed ("batched" or "object"); None before
        #: the first :meth:`run` / :meth:`run_window`.
        self.core_used: str | None = None
        self.clock_hz = float(topology.root.attrs.get("clock_hz", 2.6e9))
        self._ready: deque[SimThread] = deque()
        self._pu_last_tid: dict[int, int] = {}
        self._sibling_pus = _sibling_tables(topology)
        #: The batched core's calendar, kept between run_window calls:
        #: _buckets[when] is one flat [seq, kind, payload, ...] list in
        #: seq order (stride 3), and _when_heap a min-heap of its keys.
        self._buckets: dict[float, list] = {}
        self._when_heap: list[float] = []
        #: Set by _run_batched for the duration of the fast drain loop;
        #: _on_signal routes wakeups through it so signals raised from
        #: generator code land in the batched queue, not the object heap.
        self._fast_signal = None
        #: Virtual time (cycles) at which the event queue last made
        #: progress. run_window() quantizes ``engine.now`` up to the
        #: epoch horizon even when the queue drained early, so windowed
        #: drivers (the adaptive controller and its uncontrolled
        #: baseline) read the honest program end time here; run() sets
        #: it to the final clock.
        self.window_drained_at = 0.0
        self._ran = False

    # -- construction API ---------------------------------------------------

    def allocate(
        self,
        size: int,
        label: str = "",
        *,
        home_numa: int | None = None,
        data=None,
    ) -> Buffer:
        """Allocate a simulated buffer (see :class:`MemorySystem`)."""
        return self.memory.allocate(size, label, home_numa=home_numa, data=data)

    def event(self, name: str = "", count: int = 0) -> SimEvent:
        """A counting event wired to this machine's wakeup mechanism."""
        return SimEvent(name, count, notify=self._on_signal)

    def add_thread(
        self,
        name: str,
        gen: ThreadGen,
        *,
        kind: str = "compute",
        cpuset: Bitmap | None = None,
        start: bool = True,
    ) -> SimThread:
        """Register a simulated thread; started at :meth:`run` by default.

        ``cpuset=None`` leaves the thread to the OS scheduler policy;
        a cpuset restricts (binds) it, like ``hwloc_set_cpubind``.
        """
        if kind not in ("compute", "control"):
            raise SimulationError(f"unknown thread kind {kind!r}")
        if cpuset is not None:
            validate_cpuset(self.topology, cpuset)
        thread = SimThread(
            tid=len(self.threads), name=name, gen=gen, kind=kind, cpuset=cpuset
        )
        thread.state = "new" if start else "unstarted"
        self.threads.append(thread)
        return thread

    def bind_thread(self, thread: SimThread, cpuset: Bitmap | None) -> None:
        """Re-bind a registered thread (the affinity_set path)."""
        if cpuset is not None:
            validate_cpuset(self.topology, cpuset)
        thread.cpuset = cpuset

    def attach_sanitizer(self):
        """Attach the invariant sanitizer's live taps (idempotent).

        :meth:`run` calls this automatically when ``sanitize`` is set;
        windowed drivers (the adaptive controller of
        :mod:`repro.affinity`) call it before the first window so the
        occupancy/clock taps observe every epoch, then ``verify()`` at
        the end themselves. Lazy import — the analyze package is never
        paid for on normal runs. Returns the sanitizer.
        """
        if self.sanitizer is None:
            from repro.analyze.invariants import SimSanitizer

            self.sanitizer = SimSanitizer(self)
            self.sanitizer.attach()
        return self.sanitizer

    def attach_observer(self, observer: SimObserver) -> SimObserver:
        """Attach a metrics/trace observer before :meth:`run`.

        Constructor-kwarg alternative for machines built indirectly (the
        app builders construct runtimes that own their machine).
        """
        if self._ran:
            raise SimulationError("cannot attach an observer after run()")
        if self.observer is not None and self.observer is not observer:
            raise SimulationError("machine already has an observer attached")
        self.observer = observer
        return observer

    # -- run loop -------------------------------------------------------------

    def run(
        self,
        *,
        max_cycles: float | None = None,
        max_events: int | None = None,
        allow_incomplete: bool = False,
    ) -> float:
        """Execute until every thread finishes; returns elapsed seconds.

        *max_events* defaults to ``self.limits.max_events``; a
        *max_cycles* horizon stops the run early without a deadlock
        check. Both cores are bit-identical on fixed seeds;
        :attr:`core_used` records which one executed.

        Raises :class:`DeadlockError` if threads remain blocked with an
        empty event queue (unless *allow_incomplete*).
        """
        if self._ran:
            raise SimulationError("SimMachine.run may only be called once")
        # `not >=` so a NaN horizon fails too.
        if max_cycles is not None and not max_cycles >= self.engine.now:
            raise SimulationError(
                f"max_cycles {max_cycles} is before now={self.engine.now}"
            )
        self._ran = True
        if self.sanitize:
            # Checked mode: the sanitizer rides the native monitor and
            # on_place taps (both cores), then verifies end-state
            # invariants below.
            self.attach_sanitizer()
        if max_events is None:
            max_events = self.limits.max_events
        use = self.core_used = self.core
        observer = self.observer
        if observer is not None:
            observer.begin(self)
        try:
            if use == "batched":
                self._run_batched(max_cycles=max_cycles, max_events=max_events)
            else:
                for thread in self.threads:
                    if thread.state == "new":
                        self._make_ready(thread)
                self._dispatch()
                self.engine.run(max_cycles=max_cycles, max_events=max_events)
        finally:
            # Fold on every exit so deadlocked/budget-stopped runs are
            # still observable (the registry reports partial progress).
            if observer is not None:
                observer.fold(self)
        leftover = self._unfinished()
        if leftover and not allow_incomplete and max_cycles is None:
            raise self._deadlock_error(leftover)
        if self.sanitizer is not None and not leftover:
            self.sanitizer.verify(self)
        self.window_drained_at = self.engine.now
        return self.elapsed_seconds

    def run_window(
        self, until: float, *, max_events: int | None = None
    ) -> float:
        """Drain events with timestamps ``<= until``; may be called again.

        The epoch primitive of the adaptive controller
        (:mod:`repro.affinity`): it alternates ``run_window(T_k)`` with
        folding the window's telemetry and, when the drift score asks,
        rebinding threads. An outside driver may equally schedule
        callbacks between windows with ``engine.schedule_at``; they run
        in the window that covers their timestamp. Between windows the
        machine is quiescent at a well-defined virtual time: in-flight
        busy chunks and wakeups stay where the core keeps them (the
        object path's engine heap, the batched core's calendar), and
        :attr:`pending` counts them.

        Differences from :meth:`run`: no deadlock check (threads are
        expected to be mid-flight between windows), no sanitizer attach,
        and the observer folds only when the caller invokes
        ``observer.fold(machine)`` after the last window (``fold`` is
        idempotent). *max_events* is a per-window budget. Returns
        elapsed seconds at the window boundary.
        """
        # A chained comparison so a NaN horizon fails too.
        if not self.engine.now <= until < _INF:
            raise SimulationError(
                f"window horizon {until} is non-finite or before "
                f"now={self.engine.now}"
            )
        if max_events is None:
            max_events = self.limits.max_events
        use = self.core
        first = not self._ran
        self._ran = True
        if first:
            self.core_used = use
            observer = self.observer
            if observer is not None:
                observer.begin(self)
        ev0 = self.engine.events_processed
        if use == "batched":
            self._run_batched(max_cycles=until, max_events=max_events)
        else:
            if first:
                for thread in self.threads:
                    if thread.state == "new":
                        self._make_ready(thread)
                self._dispatch()
            self.engine.run(max_cycles=until, max_events=max_events)
        # Record the honest drain point before the horizon clamp below —
        # only when this window actually processed events, so idle
        # windows don't push the mark out to their horizon.
        if self.engine.events_processed > ev0:
            self.window_drained_at = self.engine.now
        # The clock of a windowed run advances to the horizon even when
        # the queue drains early: machine time is the epoch boundary, so
        # engine.schedule_at takes an outside callback stamped at or
        # after T_k and rejects one inside a window that already ran.
        if self.engine.now < until:
            self.engine.now = until
        return self.elapsed_seconds

    @property
    def pending(self) -> int:
        """Events in flight between runs: outside callbacks on the engine
        heap plus the batched core's calendar."""
        return self.engine.pending + sum(
            len(b) for b in self._buckets.values()
        ) // 3

    def raise_if_deadlocked(self) -> None:
        """Raise :meth:`run`'s :class:`DeadlockError` when every
        unfinished thread is blocked and no event is in flight.

        For windowed loops whose machine gets nothing from outside
        between windows (the adaptive controller and its uncontrolled
        baseline): after such a window nothing can wake the blocked
        threads again. :meth:`run_window` does not check this itself — a
        driver that schedules ``engine.schedule_at`` callbacks between
        windows may legitimately leave every thread blocked until its
        next callback wakes one.
        """
        if self.pending:
            return
        leftover = self._unfinished()
        if leftover and all(t.state == "blocked" for t in leftover):
            raise self._deadlock_error(leftover)

    def _unfinished(self) -> list[SimThread]:
        return [t for t in self.threads if t.state not in ("done", "unstarted")]

    @staticmethod
    def _deadlock_error(leftover: list[SimThread]) -> DeadlockError:
        blocked = ", ".join(
            f"{t.name}({t.state}"
            + (f" on {t.waiting_on.name!r}" if t.waiting_on else "")
            + ")"
            for t in leftover[:12]
        )
        return DeadlockError(
            f"{len(leftover)} thread(s) never finished: {blocked}"
        )

    def _run_batched(
        self, *, max_cycles: float | None, max_events: int | None
    ) -> None:
        """The batched core: one flat drain loop over kind-coded events.

        A straight transcription of the object path (`_step`, `_busy_done`,
        `_dispatch`, …) with everything inlined: no closure per event, op
        dispatch through `_OP_CODE` and Touch pricing directly against
        the precomputed miss-cost rows. Must stay *bit-identical* to the
        object path — same float expressions, same
        (when, seq) event order, same rng call order. When changing either
        path, mirror the other; ``tests/test_sim_batched_equivalence.py``
        is the referee.
        """
        eng = self.engine
        model = self.model
        max_ops = self.limits.max_ops_per_step

        # -- hoisted model constants and subsystem internals ----------------
        timeslice = model.timeslice_cycles
        ts_edge = timeslice - 1e-9
        rebalance_slices = model.rebalance_slices
        cpf = model.cycles_per_flop
        htc = model.ht_contention
        os_jitter = model.os_jitter
        ctx_cycles = model.context_switch_cycles
        mig_cycles = model.migration_cycles
        cache_line = model.cache_line
        node_bw = model.node_bandwidth_cyc_per_byte
        # One plain-float horizon (+inf when unbounded) keeps the
        # per-bucket stop check to a single comparison.
        horizon = _INF if max_cycles is None else max_cycles
        caches = self.caches
        line = caches._line
        l3_hit_cy = caches._l3_hit_cycles
        stall_f = caches._stall_fraction
        winv = caches._write_invalidate
        l3s = caches._l3s
        presence = caches._presence
        miss_cost = self.memory._miss_cost
        # PU-keyed dicts flattened to lists for the pump: os indices are
        # small and dense, and a list index is the cheapest lookup there
        # is. node_free_at is the memory system's own list, advanced in
        # place.
        pu_l3 = caches.pu_l3_list()
        pu_numa = self.memory.pu_numa_list()
        node_free_at = self.memory.node_free_at
        sched = self.scheduler
        busy_map = sched._busy
        node_free = sched._node_free
        place = sched.place
        rng = self._rng
        ready = self._ready
        sibling_pus = self._sibling_pus
        pu_last_tid = self._pu_last_tid
        op_code = _OP_CODE
        cls_touch = Touch
        cls_compute = Compute
        cls_wait = Wait
        cls_spawn = Spawn
        cls_yield = YieldCPU

        # -- observability taps, bound to locals ----------------------------
        # Every instrumentation site below is a pure read/accumulate, so a
        # tapped run cannot perturb pricing, rng order or event order
        # (bit-identical across tap configurations). Metric sites update
        # flat arrays *unconditionally* — without a tap the increments
        # land in throwaway arrays, which beats a per-site branch on the
        # tapped path and costs <1% on the untapped one. Ring records keep
        # their guards: a call per transition is worth skipping.
        notify_touch = self._monitor_fns("on_touch")
        notify_block = self._monitor_fns("on_block")
        notify_finish = self._monitor_fns("on_finish")
        on_place = sched.on_place or None
        obs = self.observer
        ring_add = None
        # The busy kind fires once per completed chunk — far hotter than
        # every scheduling transition combined — so its sampling countdown
        # is inlined here instead of paying a closure call per rejection.
        # ring_cd is RingTrace._countdown itself (shared state), so mixing
        # inlined and closure-side sampling stays coherent.
        ring_add_raw = None
        ring_busy_period = 0
        ring_cd = None
        obs_pu_busy = obs_kinds = obs_depths = obs_preempts = None
        if obs is not None:
            obs_pu_busy = obs.pu_busy
            obs_kinds = obs.kind_counts
            obs_depths = obs.queue_depths
            obs_preempts = obs.preempts
            if obs.ring is not None:
                ring_add = obs.ring.add
                ring_add_raw = obs.ring.add_raw
                ring_busy_period = obs.ring._period[TR_BUSY]
                ring_cd = obs.ring._countdown
        if obs_pu_busy is None:
            obs_pu_busy = [0.0] * (
                max(p.os_index for p in self.topology.pus) + 1
            )
        if obs_kinds is None:
            obs_kinds = [0] * 4
        if obs_depths is None:
            obs_depths = [0] * QUEUE_DEPTH_BUCKETS
        if obs_preempts is None:
            obs_preempts = [0]
        depth_last = QUEUE_DEPTH_BUCKETS - 1

        # The calendar (see __init__) survives between calls, so a window
        # resumes exactly where the last one stopped; popping an event is
        # a list index.
        buckets = self._buckets
        when_heap = self._when_heap
        push = heapq.heappush
        pop = heapq.heappop
        eheap = eng._heap
        # The pump below indexes these through plain locals (closures
        # capture `buckets`/`when_heap` as cells; a second name keeps the
        # per-op accesses on LOAD_FAST).
        buckets_l = buckets
        wheap_l = when_heap

        # sib_compute[pu] = number of *compute* threads currently running
        # on pu's hyperthread siblings — maintained at occupy/release so
        # the per-op contention test is one list index instead of a scan
        # (placements change ~1000x less often than ops are priced).
        sib_compute = sched.compute_pressure(sibling_pus)

        now = eng.now
        processed = eng._events_processed
        # run() always normalizes max_events (None -> limits.max_events).
        budget = processed + max_events

        # -- the object path's helper methods, as flat closures -------------
        # eng._seq stays the one authoritative sequence counter so events
        # scheduled externally (engine.schedule from app code) interleave
        # in exactly the order the object path would give them.

        def make_ready(thread):
            if thread.state == "done":
                raise SimulationError(
                    f"cannot restart finished thread {thread.name}"
                )
            thread.state = "ready"
            ready.append(thread)
            if ring_add is not None:
                ring_add(TR_READY, now, thread.tid, thread.pu)

        def release_pu(thread):
            pu = thread.pu
            if pu is None:
                raise SimulationError(f"{thread.name} holds no PU")
            if busy_map[pu] is None:
                raise SimulationError(f"PU {pu} is not busy")
            busy_map[pu] = None
            node_free[pu_numa[pu]] ^= 1 << pu
            thread.pu = None
            if thread.kind == "compute":
                for sib in sibling_pus[pu]:
                    sib_compute[sib] -= 1

        def start_on(thread, pu):
            overhead = 0.0
            counters = thread.counters
            if pu_last_tid.get(pu) != thread.tid:
                counters.context_switches += 1
                overhead += ctx_cycles
            last = thread.last_pu
            if last is not None and last != pu:
                counters.cpu_migrations += 1
                overhead += mig_cycles
            if busy_map[pu] is not None:
                raise SimulationError(f"PU {pu} already busy")
            busy_map[pu] = thread
            node_free[pu_numa[pu]] ^= 1 << pu
            if on_place is not None:
                # Mirrors OSScheduler.occupy: hooks fire with the busy map
                # already updated, before the run transition is recorded.
                for hook in on_place:
                    hook(pu, thread)
            pu_last_tid[pu] = thread.tid
            thread.state = "running"
            thread.pu = pu
            thread.last_pu = pu
            if ring_add is not None:
                ring_add(TR_RUN, now, thread.tid, pu)
            if thread.kind == "compute":
                for sib in sibling_pus[pu]:
                    sib_compute[sib] += 1
            eng._seq = s = eng._seq + 1
            w = now + overhead
            b = buckets.get(w)
            if b is None:
                buckets[w] = [s, EV_STEP, thread]
                push(when_heap, w)
            else:
                b.append(s)
                b.append(EV_STEP)
                b.append(thread)

        def dispatch():
            d = len(ready)
            obs_depths[d if d < depth_last else depth_last] += 1
            progressed = True
            while progressed and ready:
                progressed = False
                for _ in range(len(ready)):
                    thread = ready.popleft()
                    pu = place(thread, rebalance=thread.needs_rebalance)
                    if pu is None:
                        ready.append(thread)
                        continue
                    thread.needs_rebalance = False
                    start_on(thread, pu)
                    progressed = True

        def finish(thread, crashed=False):
            thread.state = "done"
            if notify_finish is not None:
                notify_finish(thread)
            if ring_add is not None:
                ring_add(TR_CRASH if crashed else TR_DONE, now, thread.tid,
                         thread.pu)
            if thread.pu is not None:
                release_pu(thread)
            dispatch()

        def drain(event):
            woke = False
            waiters = event.waiters
            while event.count > 0 and waiters:
                thread = waiters.pop(0)
                event.count -= 1
                thread.waiting_on = None
                make_ready(thread)
                woke = True
            if woke:
                dispatch()

        def fast_signal(event):
            eng._seq = s = eng._seq + 1
            b = buckets.get(now)
            if b is None:
                buckets[now] = [s, EV_DRAIN, event]
                push(when_heap, now)
            else:
                b.append(s)
                b.append(EV_DRAIN)
                b.append(event)

        def busy_boundary(thread):
            # Quantum expired: account a slice, decide preemption/migration.
            # Returns True when the thread keeps its PU; the caller then
            # schedules its next busy chunk or resumes its generator.
            thread.slices_run = sr = thread.slices_run + 1
            thread.slice_used = 0.0
            rebalance_due = (
                thread.cpuset is None and sr % rebalance_slices == 0
            )
            contender = False
            if ready:
                pu = thread.pu
                for t in ready:
                    cs = t.cpuset
                    if cs is None or pu in cs:
                        contender = True
                        break
            if rebalance_due or contender:
                thread.needs_rebalance = rebalance_due
                obs_preempts[0] += 1
                if ring_add is not None:
                    ring_add(TR_PREEMPT, now, thread.tid, thread.pu)
                release_pu(thread)
                make_ready(thread)
                dispatch()
                return False
            return True

        def merge_external():
            # Outside engine.schedule traffic into the calendar, as CALL
            # events. Delays are >= 0 and seqs are fresh, so entries land
            # at the live bucket's tail or behind every calendar entry of
            # their timestamp — global (when, seq) order is preserved
            # because eng._seq is shared.
            while eheap:
                w, s, fn = pop(eheap)
                b = buckets.get(w)
                if b is None:
                    buckets[w] = [s, EV_CALL, fn]
                    push(when_heap, w)
                else:
                    b.append(s)
                    b.append(EV_CALL)
                    b.append(fn)

        def invalidate_others(present, l3_idx, buf_id):
            # A write to a buffer another L3 holds drops the other copies.
            # sorted() because the presence sets are a handful of L3
            # indices and a deterministic invalidation order is worth it;
            # only writes to cross-L3-shared buffers get here.
            for idx in sorted(present):
                if idx != l3_idx:
                    l3s[idx].invalidate(buf_id)

        # -- run ------------------------------------------------------------
        self._fast_signal = fast_signal
        # Live-bucket cursor: the flat [seq, kind, payload, ...] list of
        # the calendar bucket currently draining, an index into it
        # (stride 3, pointing at the next seq slot), and its timestamp
        # (`blive` marks it still registered in `buckets` so pushes at
        # `now` keep landing in its tail).
        bb: list = []
        bi = 0
        bwhen = 0.0
        blive = False
        try:
            for thread in self.threads:
                if thread.state == "new":
                    make_ready(thread)
            dispatch()
            while True:
                if bi < len(bb):
                    # Drain one event of the live bucket: append order is
                    # seq order (eng._seq is monotonic) and every entry
                    # shares `now`, so there is no heap sift and no clock
                    # store per event. Anything processing schedules at
                    # `now` appends behind `bi` and is drained in turn.
                    if eheap:
                        merge_external()
                    if processed >= budget:
                        eng._events_processed = processed
                        raise SimulationError(
                            f"event budget {max_events} exhausted at "
                            f"t={now:.3g} — runaway simulation?"
                        )
                    ev_kind = bb[bi + 1]
                    payload = bb[bi + 2]
                    bi += 3
                    processed += 1
                    obs_kinds[ev_kind] += 1
                else:
                    if eheap:
                        merge_external()
                        if bi < len(bb):
                            # Zero-delay traffic landed in the live bucket.
                            continue
                    if blive:
                        del buckets_l[bwhen]
                        blive = False
                    if not wheap_l:
                        break
                    w0 = wheap_l[0]
                    if w0 > horizon:
                        break
                    if processed >= budget:
                        eng._events_processed = processed
                        raise SimulationError(
                            f"event budget {max_events} exhausted at "
                            f"t={now:.3g} — runaway simulation?"
                        )
                    pop(wheap_l)
                    bb = buckets_l[w0]
                    bi = 0
                    bwhen = w0
                    blive = True
                    now = w0
                    eng.now = w0
                    continue
                if ev_kind == EV_BUSY:
                    # The hottest kind: a busy chunk ended. Either the
                    # quantum continues or the boundary logic decides
                    # preemption/rebalance; a thread that keeps its PU
                    # falls through to the busy-chunk block below.
                    thread = payload
                    if ring_busy_period:
                        if ring_busy_period == 1:
                            ring_add_raw(TR_BUSY, now, thread.tid, thread.pu)
                        else:
                            left = ring_cd[TR_BUSY] - 1
                            if left:
                                ring_cd[TR_BUSY] = left
                            else:
                                ring_cd[TR_BUSY] = ring_busy_period
                                ring_add_raw(
                                    TR_BUSY, now, thread.tid, thread.pu
                                )
                    su = thread.slice_used + thread.cur_chunk
                    if su < ts_edge:
                        thread.slice_used = su
                    elif not busy_boundary(thread):
                        continue
                elif ev_kind == EV_STEP:
                    thread = payload
                elif ev_kind == EV_DRAIN:
                    drain(payload)
                    continue
                else:  # EV_CALL
                    eng._events_processed = processed
                    payload()
                    continue

                # ---- busy-chunk block: a thread on its PU with busy work
                # left runs its next chunk, up to the end of its quantum.
                pb = thread.pending_busy
                if pb > 0.0:
                    remaining = timeslice - thread.slice_used
                    chunk = pb if pb <= remaining else remaining
                    thread.pending_busy = pb - chunk
                    thread.counters.busy_cycles += chunk
                    obs_pu_busy[thread.pu] += chunk
                    thread.cur_chunk = chunk
                    eng._seq = s2 = eng._seq + 1
                    w2 = now + chunk
                    b2 = buckets_l.get(w2)
                    if b2 is None:
                        buckets_l[w2] = [s2, EV_BUSY, thread]
                        push(wheap_l, w2)
                    else:
                        b2.append(s2)
                        b2.append(EV_BUSY)
                        b2.append(thread)
                    continue

                # ---- op pump: resume the generator and price ops until
                # one costs cycles. This is `_step` inlined into the main
                # loop so the hot path runs on this frame's fast locals
                # with no per-event function call.
                gen = thread.gen
                counters = thread.counters
                is_compute = thread.kind == "compute"
                ops = 0
                resets = 0
                while True:
                    try:
                        sv = thread.send_value
                        if sv is None:
                            op = next(gen)
                        else:
                            thread.send_value = None
                            op = gen.send(sv)
                    except StopIteration:
                        finish(thread)
                        break
                    except Exception:
                        finish(thread, True)
                        raise
                    # Exact-class identity chain first (no ops are subclassed
                    # anywhere in the tree); the dict only catches user
                    # subclasses, cached after one isinstance resolution.
                    cls = op.__class__
                    if cls is cls_touch:
                        code = 0
                    elif cls is cls_compute:
                        code = 1
                    elif cls is cls_wait:
                        code = 2
                    elif cls is cls_spawn:
                        code = 3
                    elif cls is cls_yield:
                        code = 4
                    else:
                        code = op_code.get(cls)
                        if code is None:
                            for base in _OP_BASES:
                                if isinstance(op, base):
                                    code = op_code[base]
                                    op_code[cls] = code
                                    break
                            else:
                                raise SimulationError(
                                    f"{thread.name} yielded unknown op {op!r}"
                                )
                    if code == 0:  # Touch
                        buf = op.buffer
                        nbytes = op.nbytes
                        if nbytes is None:
                            nbytes = buf.size
                        if notify_touch is not None:
                            # Same observation point as _step: the request
                            # size before clamping, priced right after.
                            notify_touch(thread, buf, nbytes, op.write)
                        pu = thread.pu
                        if nbytes <= 0:
                            if buf.home_numa is None:
                                buf.home_numa = pu_numa[pu]
                            busy = 0.0
                        else:
                            # int nbytes/size promote exactly in float
                            # arithmetic, so no float() conversion: every
                            # derived quantity is bit-identical.
                            nb = nbytes
                            size = buf.size
                            if nb > size:
                                nb = size
                            l3_idx = pu_l3[pu]
                            l3 = l3s[l3_idx]
                            buf_id = buf.buf_id
                            od = l3._resident
                            resident = od.get(buf_id, 0.0)
                            if resident >= size:
                                # Steady-state all-hit touch: the buffer is
                                # entirely resident (== size exactly — the
                                # install clamp is min()), so every miss term
                                # is exactly 0.0 and adding it is the float
                                # identity; install degenerates to the LRU
                                # bump. Only hit pricing, write invalidation
                                # and sibling contention remain.
                                lines_hit = nb / line
                                busy = lines_hit * l3_hit_cy
                                counters.l3_hits += lines_hit
                                counters.memory_cycles += busy
                                counters.bytes_touched += nb
                                cur = od.pop(buf_id)
                                od[buf_id] = cur
                                if op.write and winv:
                                    present = presence.get(buf_id)
                                    if present and (
                                        len(present) > 1 or l3_idx not in present
                                    ):
                                        invalidate_others(present, l3_idx, buf_id)
                                if is_compute and sib_compute[pu]:
                                    busy *= htc
                            else:
                                accessor = pu_numa[pu]
                                home = buf.home_numa
                                if home is None:
                                    home = accessor
                                    buf.home_numa = home
                                # resident < size in this branch, so the
                                # object path's >1 clamp cannot fire.
                                hit_fraction = resident / size
                                hit_bytes = nb * hit_fraction
                                miss_bytes = nb - hit_bytes
                                lines_hit = hit_bytes / line
                                lines_miss = miss_bytes / line
                                hit_cycles = lines_hit * l3_hit_cy
                                miss_cycles = (
                                    lines_miss * miss_cost[accessor][home]
                                )
                                busy = hit_cycles + miss_cycles
                                counters.l3_hits += lines_hit
                                counters.l3_misses += lines_miss
                                counters.stalled_cycles += miss_cycles * stall_f
                                counters.memory_cycles += busy
                                counters.bytes_touched += nb
                                if accessor != home:
                                    counters.remote_bytes += miss_bytes
                                cap = l3.capacity
                                if nb > cap:
                                    l3.invalidate(buf_id)
                                    if op.write and winv:
                                        present = presence.get(buf_id)
                                        if present and (
                                            len(present) > 1
                                            or l3_idx not in present
                                        ):
                                            invalidate_others(
                                                present, l3_idx, buf_id
                                            )
                                else:
                                    inst = resident + miss_bytes
                                    if inst > size:
                                        inst = size
                                    # Inline L3State.install (+touch_lru: the
                                    # pop/reinsert below already moves buf_id
                                    # to the LRU tail, so move_to_end is a
                                    # no-op).
                                    if inst > cap:
                                        inst = cap
                                    cur = resident
                                    if cur > 0.0:
                                        del od[buf_id]
                                    used = l3.used - cur
                                    tgt = cur if cur >= inst else inst
                                    if tgt > cap:
                                        tgt = cap
                                    while used + tgt > cap and od:
                                        ev_id = next(iter(od))
                                        ev_bytes = od.pop(ev_id)
                                        used -= ev_bytes
                                        p = presence.get(ev_id)
                                        if p is not None:
                                            p.discard(l3_idx)
                                    if used + tgt > cap:
                                        tgt = cap - used
                                    od[buf_id] = tgt
                                    l3.used = used + tgt
                                    ps = presence.get(buf_id)
                                    if ps is None:
                                        # Fresh singleton: no other L3 can
                                        # hold the buffer, so a write has
                                        # nothing to invalidate. Allocated
                                        # once per (buffer, first install),
                                        # not per event.
                                        presence[buf_id] = {l3_idx}  # hotlint: ok(alloc)
                                    else:
                                        ps.add(l3_idx)
                                        # l3_idx is in ps by construction:
                                        # the original presence test
                                        # reduces to len > 1.
                                        if op.write and winv and len(ps) > 1:
                                            invalidate_others(
                                                ps, l3_idx, buf_id
                                            )
                                if is_compute and sib_compute[pu]:
                                    busy *= htc
                                    extra = htc - 1.0
                                    counters.l3_misses += (
                                        miss_bytes / cache_line * extra
                                    )
                                    counters.stalled_cycles += (
                                        miss_cycles * extra * stall_f
                                    )
                                if miss_bytes > 0:
                                    free_at = node_free_at[home]
                                    start = now if now >= free_at else free_at
                                    end = start + miss_bytes * node_bw
                                    node_free_at[home] = end
                                    queued = end - now - busy
                                    if queued > 0:
                                        busy += queued
                                        counters.stalled_cycles += (
                                            queued * stall_f
                                        )
                                        counters.memory_cycles += queued
                    elif code == 1:  # Compute
                        flops = op.flops
                        eff = op.efficiency
                        busy = flops * cpf if eff == 1.0 else flops * cpf / eff
                        if is_compute and sib_compute[thread.pu]:
                            busy *= htc
                        if thread.cpuset is None and os_jitter > 0:
                            busy *= 1.0 + rng.uniform(-os_jitter, os_jitter)
                        counters.flops += flops
                        counters.compute_cycles += busy
                    elif code == 2:  # Wait
                        event = op.event
                        if event.count > 0:
                            event.count -= 1
                            ops += 1
                            if ops >= max_ops:
                                raise SimulationError(
                                    f"{thread.name} issued {max_ops} "
                                    "untimed ops — livelock?"
                                )
                            continue
                        thread.state = "blocked"
                        thread.waiting_on = event
                        event.waiters.append(thread)
                        if notify_block is not None:
                            notify_block(thread, event)
                        if ring_add is not None:
                            ring_add(TR_BLOCK, now, thread.tid, thread.pu)
                        release_pu(thread)
                        dispatch()
                        break
                    elif code == 3:  # Spawn
                        target = op.thread
                        if target.state in ("new", "unstarted"):
                            make_ready(target)
                        ops += 1
                        if ops >= max_ops:
                            raise SimulationError(
                                f"{thread.name} issued {max_ops} "
                                "untimed ops — livelock?"
                            )
                        continue
                    else:  # YieldCPU
                        # The object path routes this through _requeue, so
                        # it counts and traces as a preemption there too.
                        obs_preempts[0] += 1
                        if ring_add is not None:
                            ring_add(TR_PREEMPT, now, thread.tid, thread.pu)
                        release_pu(thread)
                        make_ready(thread)
                        dispatch()
                        break
                    # Touch and Compute priced `busy`: run its first chunk
                    # (the busy-chunk block again, then leave the pump), or
                    # reset the op budget after a zero-cost op, like the
                    # object path's recursion through _step.
                    if busy > 0.0:
                        remaining = timeslice - thread.slice_used
                        chunk = busy if busy <= remaining else remaining
                        thread.pending_busy = busy - chunk
                        counters.busy_cycles += chunk
                        obs_pu_busy[thread.pu] += chunk
                        thread.cur_chunk = chunk
                        eng._seq = s2 = eng._seq + 1
                        w2 = now + chunk
                        b2 = buckets_l.get(w2)
                        if b2 is None:
                            buckets_l[w2] = [s2, EV_BUSY, thread]
                            push(wheap_l, w2)
                        else:
                            b2.append(s2)
                            b2.append(EV_BUSY)
                            b2.append(thread)
                        break
                    thread.pending_busy = 0.0
                    ops = 0
                    resets += 1
                    if resets > max_ops:
                        raise SimulationError(
                            f"{thread.name} issued {max_ops} zero-cost "
                            "ops — livelock?"
                        )
        finally:
            self._fast_signal = None
            eng.now = now
            eng._events_processed = processed
            if blive:
                # A raise mid-bucket (event budget, livelock guard, app
                # exception): only the live bucket's undrained tail stays
                # in flight. Every other exit has already dropped it.
                if bi < len(bb):
                    del bb[:bi]
                    push(when_heap, bwhen)
                else:
                    del buckets[bwhen]

    @property
    def elapsed_cycles(self) -> float:
        return self.engine.now

    @property
    def elapsed_seconds(self) -> float:
        return self.engine.now / self.clock_hz

    def total_counters(self) -> Counters:
        """Aggregate of all per-thread counters."""
        total = Counters()
        for t in self.threads:
            total.add(t.counters)
        return total

    def utilization(self) -> float:
        """Fraction of PU-cycles spent busy over the whole run."""
        if self.engine.now <= 0:
            return 0.0
        capacity = self.engine.now * self.topology.n_pus
        return min(1.0, self.total_counters().busy_cycles / capacity)

    def counters_by_kind(self, kind: str) -> Counters:
        total = Counters()
        for t in self.threads:
            if t.kind == kind:
                total.add(t.counters)
        return total

    # -- internals: readiness and dispatch ----------------------------------------

    def _trace(self, tag: str, thread: SimThread) -> None:
        # Every scheduling transition of the object path funnels through
        # here into the observer's ring (the batched core instruments the
        # same points inline in _run_batched).
        obs = self.observer
        if obs is not None and obs.ring is not None:
            obs.ring.add(
                KIND_BY_NAME[tag], self.engine.now, thread.tid, thread.pu
            )

    def _notify_monitors(self, method: str, *args) -> None:
        for monitor in self.monitors:
            fn = getattr(monitor, method, None)
            if fn is not None:
                fn(*args)

    def _monitor_fns(self, method: str):
        """One callable for a monitor hook, or None when no monitor has it.

        The drain loop captures one per hook at setup (rebuilt on every
        ``run``/``run_window`` call, so attaching between windows
        works), turning a hook nobody implements into a single ``is
        None`` branch per event instead of a getattr sweep over every
        monitor. A lone listener is returned as is — the adaptive
        controller's per-Touch telemetry tap is one call, not a loop —
        and several are called in monitor order.
        """
        fns = [fn for m in self.monitors
               if (fn := getattr(m, method, None)) is not None]
        if not fns:
            return None
        if len(fns) == 1:
            return fns[0]

        def fan_out(*args):
            for fn in fns:
                fn(*args)

        return fan_out

    def _on_signal(self, event: SimEvent) -> None:
        # Called synchronously from app code; defer wakeups to the engine
        # so generator execution is never reentrant. While the batched
        # core is draining, route into its queue instead.
        fast = self._fast_signal
        if fast is not None:
            fast(event)
        else:
            self.engine.schedule(0.0, lambda: self._drain_event(event))

    def _drain_event(self, event: SimEvent) -> None:
        woke = False
        while event.count > 0 and event.waiters:
            thread = event.waiters.pop(0)
            event.count -= 1
            thread.waiting_on = None
            self._make_ready(thread)
            woke = True
        if woke:
            self._dispatch()

    def _make_ready(self, thread: SimThread) -> None:
        if thread.state in ("done",):
            raise SimulationError(f"cannot restart finished thread {thread.name}")
        thread.state = "ready"
        self._ready.append(thread)
        self._trace("ready", thread)

    def _dispatch(self) -> None:
        obs = self.observer
        if obs is not None and obs.queue_depths is not None:
            depths = obs.queue_depths
            d = len(self._ready)
            last = len(depths) - 1
            depths[d if d < last else last] += 1
        progressed = True
        while progressed and self._ready:
            progressed = False
            for thread in list(self._ready):
                pu = self.scheduler.place(thread, rebalance=thread.needs_rebalance)
                if pu is None:
                    continue
                self._ready.remove(thread)
                thread.needs_rebalance = False
                self._start_on(thread, pu)
                progressed = True

    def _start_on(self, thread: SimThread, pu: int) -> None:
        overhead = 0.0
        if self._pu_last_tid.get(pu) != thread.tid:
            thread.counters.context_switches += 1
            overhead += self.model.context_switch_cycles
        if thread.last_pu is not None and thread.last_pu != pu:
            thread.counters.cpu_migrations += 1
            overhead += self.model.migration_cycles
        self.scheduler.occupy(pu, thread)
        self._pu_last_tid[pu] = thread.tid
        thread.state = "running"
        thread.pu = pu
        thread.last_pu = pu
        self._trace("run", thread)
        self.engine.schedule(overhead, lambda: self._step(thread))

    def _release_pu(self, thread: SimThread) -> None:
        if thread.pu is None:
            raise SimulationError(f"{thread.name} holds no PU")
        self.scheduler.release(thread.pu)
        thread.pu = None

    # -- internals: generator stepping ----------------------------------------------

    def _step(self, thread: SimThread) -> None:
        """Advance the generator until a timed/blocking op or completion."""
        if thread.pending_busy > 0.0:
            self._run_busy(thread, thread.pending_busy)
            return
        max_ops = self.limits.max_ops_per_step
        for _ in range(max_ops):
            try:
                if thread.send_value is None:
                    # Plain iterators of ops are accepted alongside
                    # generators; next() covers both.
                    op = next(thread.gen)
                else:
                    op = thread.gen.send(thread.send_value)
            except StopIteration:
                self._finish(thread)
                return
            except Exception:
                # Surface app bugs with the thread identity attached.
                self._finish(thread, crashed=True)
                raise
            thread.send_value = None
            if isinstance(op, Compute):
                cycles = self._price_compute(thread, op)
                thread.counters.flops += op.flops
                thread.counters.compute_cycles += cycles
                self._run_busy(thread, cycles)
                return
            if isinstance(op, Touch):
                nbytes = op.nbytes if op.nbytes is not None else op.buffer.size
                if self.monitors:
                    self._notify_monitors(
                        "on_touch", thread, op.buffer, nbytes, op.write
                    )
                priced = self.caches.touch(
                    thread.pu, op.buffer, nbytes, write=op.write,
                    counters=thread.counters,
                )
                busy = priced.cycles
                # Sibling compute threads share the core's L1/L2 and
                # load/store units: interleaved streams defeat line reuse,
                # so the latency portion scales and the extra refetches
                # surface as additional L3 misses (the miss inflation of
                # the native rows in Tables II-IV).
                if thread.kind == "compute" and self._sibling_compute_active(thread):
                    busy *= self.model.ht_contention
                    extra = self.model.ht_contention - 1.0
                    thread.counters.l3_misses += (
                        priced.miss_bytes / self.model.cache_line * extra
                    )
                    thread.counters.stalled_cycles += (
                        priced.miss_cycles * extra * self.model.stall_fraction
                    )
                if priced.miss_bytes > 0:
                    # FIFO service at the home node's memory controller:
                    # the touch cannot complete before the node has
                    # delivered the missed bytes.
                    horizon = self.memory.reserve_bandwidth(
                        priced.home_numa, priced.miss_bytes, self.engine.now
                    )
                    queued = horizon - self.engine.now - busy
                    if queued > 0:
                        busy += queued
                        thread.counters.stalled_cycles += (
                            queued * self.model.stall_fraction
                        )
                        thread.counters.memory_cycles += queued
                self._run_busy(thread, busy)
                return
            if isinstance(op, Wait):
                event = op.event
                if event.try_consume():
                    continue
                thread.state = "blocked"
                thread.waiting_on = event
                event.waiters.append(thread)
                if self.monitors:
                    self._notify_monitors("on_block", thread, event)
                self._trace("block", thread)
                self._release_pu(thread)
                self._dispatch()
                return
            if isinstance(op, Spawn):
                target = op.thread
                if target.state in ("new", "unstarted"):
                    self._make_ready(target)
                continue
            if isinstance(op, YieldCPU):
                self._requeue(thread)
                return
            raise SimulationError(f"{thread.name} yielded unknown op {op!r}")
        raise SimulationError(
            f"{thread.name} issued {max_ops} untimed ops — livelock?"
        )

    def _price_compute(self, thread: SimThread, op: Compute) -> float:
        cycles = op.flops * self.model.cycles_per_flop / op.efficiency
        # SMT contention bites when two *compute* threads share a core;
        # light control threads neither suffer nor inflict it (the paper's
        # rationale for reserving siblings for control).
        if thread.kind == "compute" and self._sibling_compute_active(thread):
            cycles *= self.model.ht_contention
        if thread.cpuset is None and self.model.os_jitter > 0:
            jitter = self._rng.uniform(-self.model.os_jitter, self.model.os_jitter)
            cycles *= 1.0 + jitter
        return cycles

    def _sibling_compute_active(self, thread: SimThread) -> bool:
        if thread.pu is None:
            return False
        for sib in self._sibling_pus[thread.pu]:
            other = self.scheduler.thread_on(sib)
            if other is not None and other.kind == "compute":
                return True
        return False

    def _run_busy(self, thread: SimThread, cycles: float) -> None:
        """Occupy the PU for *cycles*, chopped at the timeslice boundary."""
        if cycles <= 0.0:
            thread.pending_busy = 0.0
            self._step(thread)
            return
        remaining_slice = self.model.timeslice_cycles - thread.slice_used
        chunk = min(cycles, remaining_slice)
        thread.pending_busy = cycles - chunk
        thread.counters.busy_cycles += chunk
        obs = self.observer
        if obs is not None and obs.pu_busy is not None:
            obs.pu_busy[thread.pu] += chunk
        self.engine.schedule(chunk, lambda: self._busy_done(thread, chunk))

    def _busy_done(self, thread: SimThread, chunk: float) -> None:
        obs = self.observer
        if obs is not None and obs.ring is not None:
            obs.ring.add(TR_BUSY, self.engine.now, thread.tid, thread.pu)
        thread.slice_used += chunk
        if thread.slice_used >= self.model.timeslice_cycles - 1e-9:
            # Quantum expired: account a slice, decide preemption/migration.
            thread.slices_run += 1
            thread.slice_used = 0.0
            rebalance_due = (
                thread.cpuset is None
                and thread.slices_run % self.model.rebalance_slices == 0
            )
            if rebalance_due or self._contender_for(thread.pu):
                thread.needs_rebalance = rebalance_due
                self._requeue(thread)
                return
        # _step runs the pending busy work first, if any.
        self._step(thread)

    def _contender_for(self, pu: int | None) -> bool:
        if pu is None:
            return False
        for t in self._ready:
            if t.cpuset is None or pu in t.cpuset:
                return True
        return False

    def _requeue(self, thread: SimThread) -> None:
        obs = self.observer
        if obs is not None and obs.preempts is not None:
            obs.preempts[0] += 1
        self._trace("preempt", thread)
        self._release_pu(thread)
        self._make_ready(thread)
        self._dispatch()

    def _finish(self, thread: SimThread, *, crashed: bool = False) -> None:
        thread.state = "done"
        if self.monitors:
            self._notify_monitors("on_finish", thread)
        self._trace("crash" if crashed else "done", thread)
        if thread.pu is not None:
            self._release_pu(thread)
        self._dispatch()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<SimMachine {self.topology.name} t={self.engine.now:.3g}cy "
            f"threads={len(self.threads)}>"
        )
