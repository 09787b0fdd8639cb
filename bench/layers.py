"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/``: it measures layers by replacing
their public functions and methods with thin wrappers for the duration
of a traced pass, then putting the originals back. Wrappers sit at call
granularity (one span per ``SimMachine.run``, per ``treematch_map``, per
cache lookup), never per simulated event.

* :class:`Tracer` aggregates spans online: calls, busy time (outermost
  span of a name only, so recursion is not counted twice) and self time
  (span duration minus the time covered by its direct child spans). It
  keeps a bounded list of raw spans for a Chrome ``trace_event`` export.
* :class:`Patcher` performs the replacement. A function is replaced in
  *every* loaded ``repro.*`` module attribute that ``is`` it, so names
  bound by ``from x import f`` are wrapped too; methods are replaced on
  their class. :meth:`Patcher.restore` puts every original back by
  identity.
* :data:`SPANS` names the wrapped layers, one row per target.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

__all__ = [
    "SPANS",
    "Tracer",
    "Patcher",
    "resolve",
    "install_tracing",
    "install_counting",
    "layer_names",
]

#: ``(span name, module, attribute)`` for every wrapped layer entry
#: point. A dotted attribute is a method (``Class.method``). Several
#: targets may share one span name (``apps.build`` covers every program
#: builder). Names follow the modules: ``<layer>.<function>``.
SPANS: tuple[tuple[str, str, str], ...] = (
    # executor and cache
    ("parallel.run_jobs", "repro.parallel.executor", "run_jobs"),
    ("parallel.run_cell", "repro.parallel.jobs", "run_cell"),
    ("parallel.cache.get", "repro.parallel.cache", "ResultCache.get"),
    ("parallel.cache.put", "repro.parallel.cache", "ResultCache.put"),
    # simulator
    ("sim.SimMachine_init", "repro.sim.machine", "SimMachine.__init__"),
    ("sim.run", "repro.sim.machine", "SimMachine.run"),
    ("sim.run_window", "repro.sim.machine", "SimMachine.run_window"),
    # program build
    ("apps.build", "repro.apps.lk23", "build_orwl_lk23"),
    ("apps.build", "repro.apps.matmul", "build_orwl_matmul"),
    ("apps.build", "repro.apps.video.pipeline", "build_orwl_video"),
    ("apps.build", "repro.experiments.adaptive", "build_runtime"),
    # ORWL and OpenMP runtimes
    ("orwl.schedule", "repro.orwl.runtime", "Runtime.schedule"),
    ("orwl.prepare_run", "repro.orwl.runtime", "Runtime.prepare_run"),
    ("orwl.run", "repro.orwl.runtime", "Runtime.run"),
    ("orwl.dependency_get", "repro.orwl.affinity", "AffinityModule.dependency_get"),
    ("orwl.affinity_compute", "repro.orwl.affinity",
     "AffinityModule.affinity_compute"),
    ("orwl.affinity_set", "repro.orwl.affinity", "AffinityModule.affinity_set"),
    ("openmp.prepare_run", "repro.openmp.runtime", "OpenMPRuntime.prepare_run"),
    ("openmp.run", "repro.openmp.runtime", "OpenMPRuntime.run"),
    # TreeMatch
    ("treematch.treematch_map", "repro.treematch.mapping", "treematch_map"),
    ("treematch.multilevel_map", "repro.treematch.mapping", "multilevel_map"),
    ("treematch.split_k", "repro.treematch.bisect", "split_k"),
    ("treematch.coarsen", "repro.treematch.coarsen", "coarsen"),
    ("treematch.group_processes", "repro.treematch.grouping", "group_processes"),
    ("treematch.refine_groups", "repro.treematch.grouping", "refine_groups"),
    ("treematch.aggregate_comm_matrix", "repro.treematch.aggregate",
     "aggregate_comm_matrix"),
    ("treematch.placement_cost", "repro.treematch.mapping", "Placement.cost"),
    ("treematch.placement_cost", "repro.treematch.mapping", "Placement.slit_cost"),
    # adaptive controller
    ("affinity.controller_run", "repro.affinity.controller",
     "AdaptiveController.run"),
    ("affinity.fold_window", "repro.affinity.telemetry",
     "WindowTelemetry.fold_window"),
    ("affinity.drift_update", "repro.affinity.drift", "DriftDetector.update"),
    # figure / table assembly
    ("experiments.assemble", "repro.experiments.tables", "table1_machines"),
    ("experiments.assemble", "repro.experiments.figures", "fig1_comm_matrix"),
    ("experiments.assemble", "repro.experiments.figures", "fig2_allocation"),
    ("experiments.assemble", "repro.experiments.figures", "fig4_lk23"),
    ("experiments.assemble", "repro.experiments.figures", "fig5_matmul"),
    ("experiments.assemble", "repro.experiments.figures", "fig6_video"),
    ("experiments.assemble", "repro.experiments.tables", "table2_lk23_counters"),
    ("experiments.assemble", "repro.experiments.tables", "table3_matmul_counters"),
    ("experiments.assemble", "repro.experiments.tables", "table4_video_counters"),
)

#: Spans the benchmark records around its own code (not a wrapped
#: program function): the JSON rendering step of the ``map`` workload.
BENCH_SPANS = ("map.render",)

#: Simulator cores ``SimMachine.core_used`` can report ("+" is not a
#: metric-name character, so ``soa+jit`` reads ``soa_jit``).
SIM_CORES = ("object", "batched", "soa", "soa_jit")


def layer_names() -> list[str]:
    """Every span name, in table order, without duplicates."""
    return list(dict.fromkeys([name for name, _, _ in SPANS] + list(BENCH_SPANS)))


class Tracer:
    """Online span aggregation over an injectable clock.

    ``begin(name)``/``end()`` must nest like a call stack (they do: the
    wrappers run on the caller's thread, one frame per call).
    """

    #: Raw spans kept for the Chrome export; later ones are counted only.
    KEEP_EVENTS = 200_000

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        #: Counters recorded at span boundaries (events, hits, ...).
        self.counts: dict[str, float] = defaultdict(float)
        #: Time covered by spans with no enclosing span.
        self.top_time = 0.0
        self.origin = clock()
        #: Raw spans ``(name, start, end)`` for the Chrome export.
        self.events: list[tuple[str, float, float]] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._active: dict[str, int] = defaultdict(int)

    def begin(self, name: str) -> None:
        self._active[name] += 1
        self._stack.append([name, self.clock(), 0.0])

    def end(self) -> None:
        t1 = self.clock()
        name, t0, child = self._stack.pop()
        dur = t1 - t0
        self.calls[name] += 1
        self.self_time[name] += dur - child
        self._active[name] -= 1
        if not self._active[name]:
            self.busy[name] += dur
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.top_time += dur
        if len(self.events) < self.KEEP_EVENTS:
            self.events.append((name, t0, t1))
        else:
            self.dropped += 1

    def inside(self, name: str) -> bool:
        """True while a span called *name* is open."""
        return self._active[name] > 0

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span called *name*."""
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def chrome_trace(self, passes=(), metadata: dict | None = None) -> dict:
        """Chrome ``trace_event`` JSON of the kept spans.

        *passes* are ``(start, end)`` clock readings of the traced
        passes; they become enclosing ``bench.pass`` slices.
        """
        def event(name, cat, t0, t1):
            return {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": (t0 - self.origin) * 1e6,
                "dur": (t1 - t0) * 1e6,
                "pid": 1,
                "tid": 1,
            }

        out = [
            {"name": "process_name", "ph": "M", "ts": 0.0, "pid": 1, "tid": 1,
             "args": {"name": "benchmark (host wall time)"}},
        ]
        out += [event("bench.pass", "bench", t0, t1) for t0, t1 in passes]
        out += [event(n, n.split(".", 1)[0], t0, t1) for n, t0, t1 in self.events]
        return {
            "traceEvents": out,
            "displayTimeUnit": "ms",
            "metadata": dict(metadata or {}, dropped=self.dropped),
        }


class Patcher:
    """Replace functions and methods; put every original back on exit."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def replace_function(self, target, replacement) -> int:
        """Rebind every loaded ``repro.*`` module attribute that ``is``
        *target*; returns how many bindings were replaced."""
        n = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is target:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)
                    n += 1
        if not n:
            raise LookupError(f"{target!r} is bound in no loaded repro module")
        return n

    def replace_method(self, cls: type, attr: str, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def resolve(module: str, attr: str):
    """``(class or None, name, original)`` for a :data:`SPANS` target."""
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, name = attr.split(".")
        cls = getattr(mod, cls_name)
        return cls, name, cls.__dict__[name]
    return None, attr, getattr(mod, attr)


def _install(patcher: Patcher, module: str, attr: str, *, around=None,
             probe=None) -> None:
    """Wrap a :data:`SPANS`-style target; the one wrapper shape.

    ``around(fn, *args, **kwargs)`` makes the call (a span, the
    operation timer); without it the call is plain. ``probe(args)``
    runs before the call and returns a callback that sees the result,
    or None.
    """
    cls, name, fn = resolve(module, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        done = probe(args) if probe is not None else None
        result = around(fn, *args, **kwargs) if around is not None else fn(*args, **kwargs)
        if done is not None:
            done(result)
        return result

    if cls is None:
        patcher.replace_function(fn, wrapper)
    else:
        patcher.replace_method(cls, name, wrapper)


# -- probes: counters read around a call ---------------------------------------


def _sim_probe(counts):
    """Simulated events, simulated seconds and the core that ran."""

    def probe(args):
        machine = args[0]
        eng = machine.engine
        ev0, now0 = eng.events_processed, eng.now
        first = machine.core_used is None

        def done(_result):
            counts["sim.events"] += eng.events_processed - ev0
            counts["sim.virtual_s"] += (eng.now - now0) / machine.clock_hz
            if first and machine.core_used:
                counts["sim.core_used." + machine.core_used.replace("+", "_")] += 1

        return done

    return probe


def _cache_probe(counts):
    def probe(_args):
        def done(result):
            counts["parallel.cache.hits" if result is not None
                   else "parallel.cache.misses"] += 1

        return done

    return probe


def _rebind_probe(tracer: Tracer):
    """``bind_thread`` calls made inside the controller's run."""

    def probe(_args):
        if tracer.inside("affinity.controller_run"):
            tracer.counts["affinity.rebinds"] += 1

    return probe


def install_tracing(patcher: Patcher, tracer: Tracer) -> None:
    """Wrap every :data:`SPANS` target with a span on *tracer*.

    ``sim.run``/``sim.run_window`` also count simulated events, seconds
    and cores; ``parallel.cache.get`` counts hits and misses;
    ``SimMachine.bind_thread`` calls made inside the controller's run
    are counted as ``affinity.rebinds`` (a counter, not a span).
    """
    probes = {
        "sim.run": _sim_probe(tracer.counts),
        "sim.run_window": _sim_probe(tracer.counts),
        "parallel.cache.get": _cache_probe(tracer.counts),
    }
    for name, module, attr in SPANS:
        _install(patcher, module, attr, around=functools.partial(tracer.span, name),
                 probe=probes.get(name))
    _install(patcher, "repro.sim.machine", "SimMachine.bind_thread",
             probe=_rebind_probe(tracer))


def install_counting(patcher: Patcher, counts, *, op=None, recorder=None,
                     sim: bool = False) -> None:
    """The untraced run's only instrumentation.

    *op* (a ``(module, attribute)`` target) is timed through
    ``recorder.call``; with *sim*, ``SimMachine.run``/``run_window``
    count simulated events into *counts* (one read of the event counter
    before and after each call).
    """
    if op is not None:
        _install(patcher, *op, around=recorder.call)
    if sim:
        for attr in ("SimMachine.run", "SimMachine.run_window"):
            _install(patcher, "repro.sim.machine", attr, probe=_sim_probe(counts))
