"""Set-up, timed passes, output checks and metric computation.

A run of one workload: set it up ``setup_reps`` times, then start whole
passes back-to-back until the time budget is spent (the last pass may
overrun it). End-to-end numbers come from untraced passes, whose
only instrumentation is the operation timer and, for simulator
workloads, an event counter read around each ``SimMachine.run``. A
traced run alternates untraced and traced passes over its budget; the
ratio of their medians is the tracing overhead.

Timings are reported in ``ref`` units (see :mod:`bench.reference`): the
host's speed is sampled between passes and, in an untraced run, every
0.25 s inside a pass, and every pass and operation is measured in the
kernel time sampled around it. The time spent sampling is left out of
the pass and the operation it fell in.
"""

from __future__ import annotations

import cProfile
import functools
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from array import array
from collections import defaultdict
from contextlib import nullcontext

from bench import layers, profiling
from bench.reference import Reference

__all__ = ["Recorder", "digest", "measure", "profile_pass"]


def digest(obj) -> str:
    """sha256 of the canonical JSON encoding of *obj*."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Recorder:
    """Counts and times operations; a failed operation raises through."""

    def __init__(self, tracer: layers.Tracer | None = None) -> None:
        self.tracer = tracer
        #: Start and end of every completed operation.
        self.starts = array("d")
        self.ends = array("d")
        self.attempted = 0
        self.failed = 0
        #: Work done, in the workload's ``work_unit`` when the pass
        #: counts it itself (``tasks``).
        self.work = 0.0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.failed += 1
            raise
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        return result


class _Loop:
    """Passes of one workload and what they produced.

    *install* puts the loop's instrumentation in place on a
    :class:`layers.Patcher`; it is installed around each pass and
    removed after it, so untraced and traced passes can alternate.
    The host's speed is sampled on *speed* before the first pass, after
    every pass and, with *sample_inside*, during each pass.
    """

    def __init__(self, workload, recorder: Recorder, install, speed: Reference,
                 sample_inside: bool):
        self.workload = workload
        self.recorder = recorder
        self.install = install
        self.speed = speed
        self.sample_inside = sample_inside
        #: Digest every pass must reproduce (the first pass's, or one
        #: carried over from the run's untraced passes).
        self.reference: str | None = None
        #: Pass times in seconds, without the time spent sampling.
        self.walls: list[float] = []
        #: The same in ``ref`` units.
        self.ref_walls: list[float] = []
        #: ``range`` of each completed pass's operations in the recorder.
        self.op_passes: list[range] = []
        #: ``(start, end)`` of each traced pass, for the Chrome export.
        self.passes: list[tuple[float, float]] = []
        self.problems: list[str] = []
        #: Traced passes only: time covered by top-level spans.
        self.top_time = 0.0

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        while self.step() and time.perf_counter() - start < seconds:
            pass

    def step(self) -> bool:
        """Run one pass; False when it raised."""
        w, rec, speed = self.workload, self.recorder, self.speed
        tracer = rec.tracer
        w.before_pass()
        ops0, failed0 = rec.attempted, rec.failed
        op0 = len(rec.starts)
        top0 = tracer.top_time if tracer else 0.0
        if not speed.starts:
            speed.sample()
        with layers.Patcher() as patcher:
            self.install(patcher)
            with speed.sampling() if self.sample_inside else nullcontext():
                t0 = time.perf_counter()
                try:
                    out = w.run_pass(rec)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    if rec.failed == failed0:  # raised outside any operation
                        rec.attempted += 1
                        rec.failed += 1
                    self.problems.append(f"pass {len(self.walls) + 1} raised")
                    return False
                t1 = time.perf_counter()
        speed.sample()
        self.walls.append(t1 - t0 - speed.sampled(t0, t1))
        self.ref_walls.append(speed.cost(t0, t1))
        self.op_passes.append(range(op0, len(rec.starts)))
        if tracer:
            self.top_time += tracer.top_time - top0
            self.passes.append((t0, t1))
        w.after_pass()
        d = digest(out)
        # A completed pass had no failed operation; a wrong output
        # fails every operation of the pass.
        if self.reference is None:
            self.reference = d
            problems = w.check(out)
            if problems:
                self.problems += problems
                rec.failed += rec.attempted - ops0
        elif d != self.reference:
            self.problems.append(f"pass {len(self.walls)} digest {d[:12]} "
                                 f"!= {self.reference[:12]}")
            rec.failed += rec.attempted - ops0
        return True


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _setup(workload) -> list[float]:
    times = []
    for _ in range(workload.setup_reps):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def _op_medians(loop: _Loop, normalize: bool) -> list[float]:
    """Each operation's median over the run's passes (in ``ref`` units
    when *normalize*, else in seconds)."""
    rec, speed = loop.recorder, loop.speed

    def cost(i: int) -> float:
        start, end = rec.starts[i], rec.ends[i]
        if normalize:
            return speed.cost(start, end)
        return end - start - speed.sampled(start, end)

    per_pass = [[cost(i) for i in ops] for ops in loop.op_passes]
    return [statistics.median(samples) for samples in zip(*per_pass)] or [0.0]


def _end_to_end(loop: _Loop, import_s: float, setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics as ``(value, sample count)``, and the same
    timings in seconds.

    Every pass repeats the same operations in the same order, so an
    operation's cost is its median over the run's passes, and the
    percentiles are taken across the pass's distinct operations: a
    burst of contention from other tenants moves one sample of a
    median instead of the tail, and the tail shows the slow operations.
    """
    n_passes = len(loop.walls)
    n_ops = sum(map(len, loop.op_passes))
    wall = statistics.median(loop.ref_walls)
    ops = _op_medians(loop, normalize=True)
    metrics = {
        "setup_s": (import_s + statistics.median(setup), len(setup)),
        "wall_ref": (wall, n_passes),
        "op_p50_ref": (_percentile(ops, 0.50), n_ops),
        "op_p90_ref": (_percentile(ops, 0.90), n_ops),
        "work_per_ref": (loop.recorder.work / n_passes / wall, n_passes),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    ops_s = _op_medians(loop, normalize=False)
    seconds = {
        "wall_s": statistics.median(loop.walls),
        "op_p50_ms": _percentile(ops_s, 0.50) * 1e3,
        "op_p90_ms": _percentile(ops_s, 0.90) * 1e3,
        "ref_ms": loop.speed.median() * 1e3,
    }
    return metrics, seconds


def _per_layer(tracer: layers.Tracer, loop: _Loop, untraced: _Loop) -> tuple[dict, dict]:
    """Per-layer metrics (shares of traced pass wall time, per-pass
    counts) and the same layers in seconds per pass."""
    n = max(len(loop.walls), 1)
    wall = sum(loop.walls) or 1.0
    metrics: dict = {}
    seconds: dict = {}
    for name in layers.layer_names():
        busy, own = tracer.busy.get(name, 0.0), tracer.self_time.get(name, 0.0)
        metrics[f"{name}.calls"] = tracer.calls.get(name, 0) / n
        metrics[f"{name}.busy_pct"] = 100.0 * busy / wall
        metrics[f"{name}.self_pct"] = 100.0 * own / wall
        seconds[name] = {"calls": tracer.calls.get(name, 0) / n,
                         "busy_s": busy / n, "self_s": own / n}
    c = tracer.counts
    lookups = c["parallel.cache.hits"] + c["parallel.cache.misses"]
    metrics["parallel.cache.hit_ratio"] = c["parallel.cache.hits"] / lookups if lookups else 0.0
    sim_busy = tracer.busy.get("sim.run", 0.0) + tracer.busy.get("sim.run_window", 0.0)
    metrics["sim.events"] = c["sim.events"] / n
    metrics["sim.events_per_host_s"] = c["sim.events"] / sim_busy if sim_busy else 0.0
    metrics["sim.virtual_s"] = c["sim.virtual_s"] / n
    for core in layers.SIM_CORES:
        metrics[f"sim.core_used.{core}"] = c[f"sim.core_used.{core}"] / n
    metrics["affinity.rebinds"] = c["affinity.rebinds"] / n
    metrics["trace.spans"] = sum(tracer.calls.values()) / n
    metrics["trace.coverage_pct"] = 100.0 * loop.top_time / wall
    metrics["trace.overhead_ratio"] = (
        statistics.median(loop.walls) / statistics.median(untraced.walls)
        if loop.walls and untraced.walls else 0.0
    )
    return metrics, seconds


def measure(workload, *, seconds: float, trace: bool, import_s: float,
            golden: str | None = None) -> dict:
    """Set up and run *workload*; returns the run's results.

    ``golden`` is the digest the first pass must match (the recorded
    digest for the default seed), or None.
    """
    setup = _setup(workload)
    counts: dict = defaultdict(float)
    speed = Reference()
    rec = Recorder()
    untraced = _Loop(workload, rec, functools.partial(
        layers.install_counting, counts=counts, op=workload.op_target,
        recorder=rec, sim=workload.work_unit == "sim.events"), speed,
        sample_inside=not trace)
    loops = [untraced]
    result: dict = {"setup": setup, "import_s": import_s}
    if trace:
        tracer = layers.Tracer()
        # No pass of a traced run is sampled inside, so that no sample
        # lands inside a span and both kinds of pass run alike.
        traced = _Loop(workload, Recorder(tracer),
                       functools.partial(layers.install_tracing, tracer=tracer), speed,
                       sample_inside=False)
        loops.append(traced)
        # Untraced and traced passes alternate, so a drift in the
        # machine's speed moves both sides of the overhead ratio alike.
        start = time.perf_counter()
        while untraced.step():
            traced.reference = untraced.reference
            if not traced.step() or time.perf_counter() - start >= seconds:
                break
        result["per_layer"], result["layer_seconds"] = _per_layer(tracer, traced, untraced)
        result["tracer"] = tracer
        result["trace_passes"] = traced.passes
    else:
        untraced.run(seconds)
    if workload.work_unit == "sim.events":
        rec.work = counts["sim.events"]
    elif workload.work_unit == "ops":
        rec.work = rec.attempted
    problems = [p for lp in loops for p in lp.problems]
    attempted = sum(lp.recorder.attempted for lp in loops)
    failed = sum(lp.recorder.failed for lp in loops)
    if golden is not None and untraced.reference not in (None, golden):
        problems.append(f"digest {untraced.reference[:12]} != recorded "
                        f"{golden[:12]} for this seed")
        failed = attempted
    # No metric when not even the first pass completed.
    end_to_end, in_seconds = (_end_to_end(untraced, import_s, setup)
                              if untraced.walls else ({}, {}))
    result.update(
        end_to_end=end_to_end,
        seconds=in_seconds,
        walls=untraced.walls,
        ref_walls=untraced.ref_walls,
        digest=untraced.reference,
        problems=problems,
        attempted=max(attempted, 1),
        failed=failed,
        correct=not problems and not failed and untraced.reference is not None,
    )
    return result


def profile_pass(workload) -> dict:
    """Set up *workload*, run one pass under cProfile; returns the
    per-module rollup (see :mod:`bench.profiling`)."""
    _setup(workload)
    workload.before_pass()
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    try:
        workload.run_pass(Recorder())
    finally:
        prof.disable()
    wall = time.perf_counter() - t0
    workload.after_pass()
    return {"wall_s": wall, "modules": profiling.rollup(prof)}
