"""Native observability for the simulator — metrics, ring trace, export.

Three pieces, usable on **both** run-loop cores (the batched interpreter
and the object compatibility path):

:class:`MetricsRegistry`
    labeled counters/gauges/histograms with a Prometheus-flavoured
    ``name{label=value}`` snapshot — migrations per thread, L3/NUMA miss
    mix, per-PU busy/idle cycles, scheduler queue depths, preemptions.

:class:`RingTrace`
    a bounded ring buffer of scheduling/busy events with per-kind
    sampling periods (``0`` disables a kind, ``1`` records every event,
    ``N`` records 1-in-N), exportable as Chrome ``trace_event`` JSON
    (``chrome://tracing`` / Perfetto): ``pid`` is the PU, ``tid`` the
    simulated thread; :meth:`RingTrace.gantt` renders it as an ASCII
    chart.

:class:`SimObserver`
    the glue the machine understands: ``SimMachine(..., observer=obs)``
    (or :meth:`SimMachine.attach_observer`). During the run the hot
    loops update only flat per-kind arrays owned by the observer —
    allocation-free, one ``is not None`` guard per site when no observer
    is attached — and :meth:`SimObserver.fold` aggregates them into the
    registry when the run drains. Because every update is a pure
    read/accumulate, attaching an observer never perturbs pricing, rng
    order or event order: fixed-seed runs stay bit-identical across
    cores *and* across tap configurations (``tests/test_sim_difftest.py``
    asserts exactly that).

Usage::

    obs = SimObserver(trace=RingTrace(capacity=65536,
                                      sample={"busy": 16}))
    machine = SimMachine(smp12e5(), observer=obs)
    ...
    machine.run()
    obs.snapshot()["sim_pu_busy_cycles_total{pu=0}"]
    json.dump(obs.chrome_trace(), open("trace.json", "w"))
"""

from __future__ import annotations

from repro.errors import SimulationError

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "RingTrace",
    "SimObserver",
    "TRACE_KINDS",
    "TR_READY",
    "TR_RUN",
    "TR_BLOCK",
    "TR_PREEMPT",
    "TR_DONE",
    "TR_CRASH",
    "TR_BUSY",
    "KIND_BY_NAME",
    "QUEUE_DEPTH_BUCKETS",
]

#: Ring-trace event kinds: six scheduling transitions, then BUSY, one
#: completed busy chunk (the hot kind — the one worth sampling).
TR_READY = 0
TR_RUN = 1
TR_BLOCK = 2
TR_PREEMPT = 3
TR_DONE = 4
TR_CRASH = 5
TR_BUSY = 6

TRACE_KINDS = ("ready", "run", "block", "preempt", "done", "crash", "busy")
KIND_BY_NAME = {name: i for i, name in enumerate(TRACE_KINDS)}

#: The kinds that end a running stretch in :meth:`RingTrace.gantt`.
_LEAVE_PU = (TR_BLOCK, TR_PREEMPT, TR_DONE, TR_CRASH)

#: Queue-depth histogram resolution: exact counts for depths 0..63, one
#: overflow bucket for 64+.
QUEUE_DEPTH_BUCKETS = 65

#: Upper bounds of the queue-depth histogram exported by fold().
_DEPTH_BOUNDS = (0, 1, 2, 4, 8, 16, 32, 64)


# -- metrics ------------------------------------------------------------------


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise SimulationError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        self.value += amount


class Gauge:
    """A value that can go either way (set wins)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics: ``le``)."""

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "sum")
    kind = "histogram"

    def __init__(self, name: str, labels: tuple, bounds: tuple) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise SimulationError(
                f"histogram {self.__class__.__name__} {name!r} needs sorted "
                f"non-empty bounds, got {bounds!r}"
            )
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float, n: int = 1) -> None:
        """Record *value*, optionally *n* identical observations at once
        (fold() feeds pre-aggregated per-depth counts this way)."""
        if value <= self.bounds[0]:
            # Batch-of-one fast path: serial chain workloads dispatch
            # one waker at a time, so fold()'s queue-depth stream is
            # dominated by first-bucket (depth 0/1) observations — one
            # comparison instead of the bound scan.
            self.bucket_counts[0] += n
        else:
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self.bucket_counts[i] += n
                    break
            else:
                self.bucket_counts[-1] += n
        self.count += n
        self.sum += value * n

    def to_dict(self) -> dict:
        buckets = {
            f"le_{bound:g}": c
            for bound, c in zip(self.bounds, self.bucket_counts)
        }
        buckets["le_inf"] = self.bucket_counts[-1]
        return {"count": self.count, "sum": self.sum, "buckets": buckets}


class MetricsRegistry:
    """Labeled metric families, keyed ``(name, sorted labels)``.

    ``counter``/``gauge``/``histogram`` are get-or-create: the same
    (name, labels) pair always returns the same instance, and reusing a
    name with a different metric kind is an error.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple, object] = {}

    def _get(self, cls, name: str, labels: dict, **kwargs):
        key = (name, tuple(sorted(labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise SimulationError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def _counter1(self, name: str, label: str, value) -> Counter:
        """Get-or-create a counter with exactly one label, skipping the
        kwargs/sort machinery — fold() creates two metrics per thread
        and per PU, and on short runs that series would otherwise cost
        more than the instrumentation itself."""
        key = (name, ((label, value),))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Counter(name, key[1])
            self._metrics[key] = metric
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def _gauge1(self, name: str, label: str, value) -> Gauge:
        """Single-label gauge fast path; see :meth:`_counter1`."""
        key = (name, ((label, value),))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Gauge(name, key[1])
            self._metrics[key] = metric
        return metric

    def histogram(self, name: str, *, bounds: tuple, **labels) -> Histogram:
        return self._get(Histogram, name, labels, bounds=bounds)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    @staticmethod
    def _key_text(name: str, labels: tuple) -> str:
        if not labels:
            return name
        inner = ",".join(f"{k}={v}" for k, v in labels)
        return f"{name}{{{inner}}}"

    def snapshot(self) -> dict:
        """Flat ``{"name{label=value}": value_or_histogram_dict}`` view,
        deterministically ordered (sorted keys)."""
        out = {}
        for (name, labels), metric in self._metrics.items():
            key = self._key_text(name, labels)
            if isinstance(metric, Histogram):
                out[key] = metric.to_dict()
            else:
                out[key] = metric.value
        return dict(sorted(out.items()))


# -- ring trace ---------------------------------------------------------------


class RingTrace:
    """Bounded ring of ``(kind, ts_cycles, tid, pu)`` trace records.

    *capacity* bounds memory (old records are overwritten, counted in
    :attr:`dropped`). *sample* maps kind (name or ``TR_*`` int) to a
    sampling period: ``0`` disables the kind, ``1`` keeps every event,
    ``N`` keeps the 1st of every N (per-kind countdown, so the stream
    stays deterministic). Unlisted kinds default to period 1.
    """

    __slots__ = (
        "capacity", "_buf", "_period", "_countdown", "_cell", "add",
        "add_raw",
    )

    def __init__(self, capacity: int = 65536, sample: dict | None = None):
        if capacity < 1:
            raise SimulationError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buf: list = [None] * capacity
        self._period = [1] * len(TRACE_KINDS)
        # Countdown starts at 1 so the first occurrence of a sampled kind
        # is always kept — a trace that begins at the 16th busy chunk
        # would be confusing.
        self._countdown = [1] * len(TRACE_KINDS)
        for kind, period in (sample or {}).items():
            if isinstance(kind, str):
                if kind not in KIND_BY_NAME:
                    raise SimulationError(
                        f"unknown trace kind {kind!r}; known: {TRACE_KINDS}"
                    )
                kind = KIND_BY_NAME[kind]
            elif not 0 <= kind < len(TRACE_KINDS):
                raise SimulationError(f"unknown trace kind id {kind}")
            if period < 0:
                raise SimulationError(
                    f"sampling period must be >= 0, got {period}"
                )
            self._period[kind] = period
        self._cell = [0, 0]  # [next write index, records kept]
        self._bind_add()

    def _bind_add(self) -> None:
        """Build the hot-path recorders, closed over locals.

        ``add`` (sampling applied) and ``add_raw`` (caller already
        decided to keep the record — the machine inlines the countdown
        for the hot busy kind) run once per scheduling transition inside
        the simulator drain loops, so everything they touch is a closure
        local — no ``self`` attribute walks. Mutable state lives in the
        shared ``_cell`` list so properties can read it back.
        """
        period_by_kind = self._period
        countdown = self._countdown
        buf = self._buf
        cap = self.capacity
        cell = self._cell

        def add_raw(kind: int, ts: float, tid: int, pu) -> bool:
            """Record one event unconditionally (no sampling)."""
            i = cell[0]
            buf[i] = (kind, ts, tid, -1 if pu is None else pu)
            i += 1
            cell[0] = 0 if i == cap else i
            cell[1] += 1
            return True

        def add(kind: int, ts: float, tid: int, pu) -> bool:
            """Record one event; returns True when kept (not sampled out)."""
            period = period_by_kind[kind]
            if period != 1:
                if period == 0:
                    return False
                left = countdown[kind] - 1
                if left:
                    countdown[kind] = left
                    return False
                countdown[kind] = period
            i = cell[0]
            buf[i] = (kind, ts, tid, -1 if pu is None else pu)
            i += 1
            cell[0] = 0 if i == cap else i
            cell[1] += 1
            return True

        self.add = add
        self.add_raw = add_raw

    @property
    def recorded(self) -> int:
        """Records kept, including ones later overwritten by wraparound."""
        return self._cell[1]

    @property
    def dropped(self) -> int:
        """Records overwritten by ring wraparound."""
        kept = self._cell[1]
        return kept - self.capacity if kept > self.capacity else 0

    def __len__(self) -> int:
        return self.recorded if self.recorded < self.capacity else self.capacity

    def records(self) -> list[tuple]:
        """Live records oldest-first (timestamps are nondecreasing)."""
        buf = self._buf
        i = self._cell[0]
        if buf[i] is None:  # never wrapped
            return [r for r in buf[:i]]
        return [r for r in buf[i:] + buf[:i] if r is not None]

    def gantt(
        self,
        *,
        names: dict[int, str] | None = None,
        width: int = 80,
        max_threads: int = 40,
    ) -> str:
        """ASCII Gantt chart of the live records: one row per thread,
        ``#`` while running.

        Time is bucketed into *width* columns between the first and last
        record; a bucket is marked if the thread was in the running state
        at any point inside it. Needs the run and the four leave-the-PU
        kinds (block, preempt, done, crash) unsampled.
        """
        recs = self.records()
        if not recs:
            return "(empty trace)"
        t0 = recs[0][1]
        span = (recs[-1][1] - t0) or 1.0  # timestamps are nondecreasing
        by_tid: dict[int, list] = {}
        for kind, ts, tid, _ in recs:
            if tid >= 0:
                by_tid.setdefault(tid, []).append((kind, ts))
        rows = []
        for tid in sorted(by_tid)[:max_threads]:
            cells = [" "] * width
            running_since: float | None = None
            for kind, ts in by_tid[tid]:
                if kind == TR_RUN:
                    running_since = ts
                elif kind in _LEAVE_PU and running_since is not None:
                    lo = int((running_since - t0) / span * (width - 1))
                    hi = int((ts - t0) / span * (width - 1))
                    for c in range(lo, hi + 1):
                        cells[c] = "#"
                    running_since = None
            if running_since is not None:
                lo = int((running_since - t0) / span * (width - 1))
                for c in range(lo, width):
                    cells[c] = "#"
            label = (names or {}).get(tid, f"t{tid}")
            rows.append(f"{label:>14.14} |{''.join(cells)}|")
        return "\n".join(rows)

    def to_chrome(
        self,
        *,
        clock_hz: float,
        thread_names: dict[int, str] | None = None,
    ) -> dict:
        """Chrome ``trace_event`` JSON (load in Perfetto / chrome://tracing).

        Mapping: ``pid`` = PU os-index (``-1`` while off-PU), ``tid`` =
        simulated thread id, ``ts`` = microseconds of virtual time. Each
        record is an instant event (``ph="i"``); ``M`` metadata events
        name the PUs and threads.
        """
        scale = 1e6 / clock_hz
        names = thread_names or {}
        instants = []
        pids: set = set()
        tids: set = set()
        for kind, ts, tid, pu in self.records():
            pids.add(pu)
            tids.add((pu, tid))
            instants.append({
                "name": TRACE_KINDS[kind],
                "ph": "i",
                "ts": ts * scale,
                "pid": pu,
                "tid": tid,
                "s": "t",
                "args": {"cycles": ts},
            })
        meta = []
        for pu in sorted(pids):
            meta.append({
                "name": "process_name",
                "ph": "M",
                "ts": 0.0,
                "pid": pu,
                "tid": 0,
                "args": {"name": "off-PU" if pu < 0 else f"PU {pu}"},
            })
        for pu, tid in sorted(tids):
            meta.append({
                "name": "thread_name",
                "ph": "M",
                "ts": 0.0,
                "pid": pu,
                "tid": tid,
                "args": {"name": names.get(tid, f"t{tid}")},
            })
        return {
            "traceEvents": meta + instants,
            "displayTimeUnit": "ms",
            "metadata": {
                "recorded": self.recorded,
                "dropped": self.dropped,
                "capacity": self.capacity,
            },
        }


# -- the observer the machine drives ------------------------------------------


class SimObserver:
    """Metrics + optional ring trace for one :class:`SimMachine` run.

    Single-use, like the machine itself: attach (constructor kwarg or
    :meth:`SimMachine.attach_observer`) before ``run()``; read
    :meth:`snapshot` / :meth:`chrome_trace` after. The live fields the
    hot loops touch (:attr:`pu_busy`, :attr:`kind_counts`,
    :attr:`queue_depths`, :attr:`preempts`) are flat preallocated lists —
    nothing allocates inside the drain loop.
    """

    def __init__(self, *, metrics: bool = True, trace: RingTrace | bool = False):
        self.registry = MetricsRegistry()
        self.metrics_enabled = bool(metrics)
        if trace is True:
            trace = RingTrace()
        # Identity test, not truthiness: an empty RingTrace has len 0.
        self.ring: RingTrace | None = (
            trace if isinstance(trace, RingTrace) else None
        )
        # Live arrays, sized at begin(). None while metrics are off so the
        # machine's per-site guards collapse to one is-None test.
        self.pu_busy: list | None = None
        self.queue_depths: list | None = None
        self.kind_counts: list | None = None
        self.preempts: list | None = None
        self.meta: dict = {}
        self._machine = None
        self._folded = False

    # -- machine protocol ----------------------------------------------------

    def begin(self, machine) -> None:
        """Size the live arrays for *machine* (called by ``run()``)."""
        if self._machine is not None and self._machine is not machine:
            raise SimulationError(
                "SimObserver is single-use: already attached to another "
                "machine"
            )
        self._machine = machine
        if self.metrics_enabled and self.pu_busy is None:
            n_pus = max(p.os_index for p in machine.topology.pus) + 1
            self.pu_busy = [0.0] * n_pus
            self.queue_depths = [0] * QUEUE_DEPTH_BUCKETS
            self.kind_counts = [0] * 3  # EV_STEP/BUSY/DRAIN
            self.preempts = [0]

    def fold(self, machine) -> None:
        """Aggregate live arrays + machine state into the registry."""
        if self._folded:
            return
        self._folded = True
        self._machine = machine
        reg = self.registry
        elapsed = machine.engine.now
        self.meta = {
            "core": machine.core_used or "",
            "elapsed_cycles": elapsed,
            "elapsed_seconds": machine.elapsed_seconds,
            "clock_hz": machine.clock_hz,
            "threads": len(machine.threads),
        }
        if not self.metrics_enabled:
            return
        reg.gauge("sim_elapsed_cycles").set(elapsed)
        reg.counter("sim_events_processed_total").inc(
            machine.engine.events_processed
        )
        total = machine.total_counters()
        reg.counter("sim_l3_hits_total").inc(total.l3_hits)
        reg.counter("sim_l3_misses_total").inc(total.l3_misses)
        reg.gauge("sim_l3_miss_ratio").set(total.miss_ratio)
        reg.counter("sim_numa_local_bytes_total").inc(total.local_bytes)
        reg.counter("sim_numa_remote_bytes_total").inc(total.remote_bytes)
        reg.counter("sim_stalled_cycles_total").inc(total.stalled_cycles)
        reg.counter("sim_flops_total").inc(total.flops)
        reg.counter("sim_migrations_total").inc(total.cpu_migrations)
        reg.counter("sim_context_switches_total").inc(total.context_switches)
        for t in machine.threads:
            name = t.name or f"t{t.tid}"
            reg._counter1("sim_thread_migrations_total", "thread", name).inc(
                t.counters.cpu_migrations
            )
            reg._counter1("sim_thread_busy_cycles_total", "thread", name).inc(
                t.counters.busy_cycles
            )
        if self.pu_busy is not None:
            for pu, busy in enumerate(self.pu_busy):
                reg._counter1("sim_pu_busy_cycles_total", "pu", pu).inc(busy)
                idle = elapsed - busy
                reg._gauge1("sim_pu_idle_cycles", "pu", pu).set(
                    idle if idle > 0.0 else 0.0
                )
        if self.preempts is not None:
            reg.counter("sim_sched_preempts_total").inc(self.preempts[0])
        if self.queue_depths is not None:
            hist = reg.histogram(
                "sim_sched_queue_depth", bounds=_DEPTH_BOUNDS
            )
            for depth, count in enumerate(self.queue_depths):
                if count:
                    hist.observe(depth, count)
        if self.kind_counts is not None and machine.core_used == "batched":
            # Per-kind event split exists only where events are kind-coded
            # — the object path drains opaque closures.
            for kind, name in enumerate(("step", "busy", "drain")):
                reg.counter("sim_events_by_kind_total", kind=name).inc(
                    self.kind_counts[kind]
                )
        if self.ring is not None:
            reg.counter("sim_trace_records_total").inc(self.ring.recorded)
            reg.counter("sim_trace_dropped_total").inc(self.ring.dropped)

    # -- user-facing results -------------------------------------------------

    def snapshot(self) -> dict:
        return self.registry.snapshot()

    def chrome_trace(self) -> dict:
        """Chrome ``trace_event`` export of the ring (requires trace=...)."""
        if self.ring is None:
            raise SimulationError(
                "observer has no ring trace — construct with "
                "SimObserver(trace=RingTrace(...))"
            )
        names = {}
        clock_hz = 1e6
        if self._machine is not None:
            clock_hz = self._machine.clock_hz
            names = {
                t.tid: (t.name or f"t{t.tid}") for t in self._machine.threads
            }
        return self.ring.to_chrome(clock_hz=clock_hz, thread_names=names)
