"""Differential-testing harness: object vs batched core, bit for bit.

Generates seeded random programs — ORWL programs over the three paper
application skeletons (lk23 wavefront, matmul ring, video pipeline) at
miniature problem sizes, plus serial dependency chains straight on a
:class:`~repro.sim.machine.SimMachine` — runs each one on both
simulator cores, and asserts the full fingerprint — counters, final
clock, event count, thread states, and (when taps are attached) every
observation stream — is *identical*, not merely close.

Each generated spec carries a tap mode:

``off``
    no observer — the plain hot path;
``on``
    a :class:`~repro.sim.observe.SimObserver` with full metrics, an
    unsampled ring trace, a counting monitor and an ``on_place`` hook
    all attached at once;
``sampled``
    the same observer with a small ring and 1-in-4 busy sampling —
    exercising countdown sampling and ring wraparound under load.

The module is import-light so tooling can use it outside pytest:
:func:`run_smoke` is the preflight hook ``scripts/regenerate_all.py``
calls before spending hours on experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from repro.apps.lk23 import Lk23Config, build_orwl_lk23
from repro.apps.matmul import MatmulConfig, build_orwl_matmul
from repro.apps.video import VideoConfig
from repro.apps.video.pipeline import build_orwl_video
from repro.orwl.runtime import Runtime
from repro.sim.observe import RingTrace, SimObserver
from repro.topology import smp12e5, smp12e5_4s, smp20e7

__all__ = [
    "APPS",
    "TAP_MODES",
    "ProgramSpec",
    "generate_programs",
    "run_one",
    "check_program",
    "run_smoke",
]

APPS = ("lk23", "matmul", "video", "chain")
TAP_MODES = ("off", "on", "sampled")
TOPOLOGIES = {
    "smp12e5": smp12e5,
    "smp20e7": smp20e7,
    "smp12e5_4s": smp12e5_4s,
}

#: Snapshot keys excluded from cross-core comparison: the per-kind event
#: split only exists where events are kind-coded (the batched core).
_CORE_ONLY_PREFIX = "sim_events_by_kind_total"


@dataclass(frozen=True)
class ProgramSpec:
    """One generated differential test case."""

    index: int
    app: str
    config: tuple  # sorted (key, value) pairs — hashable, reproducible
    topology: str
    affinity: bool
    seed: int
    tap_mode: str

    def describe(self) -> str:
        cfg = ", ".join(f"{k}={v}" for k, v in self.config)
        return (
            f"#{self.index} {self.app}({cfg}) on {self.topology} "
            f"affinity={self.affinity} seed={self.seed} taps={self.tap_mode}"
        )


def _draw_config(app: str, rng: Random) -> dict:
    if app == "chain":
        return {
            "shape": rng.choice(("ring", "line", "stages")),
            "n_threads": rng.choice((3, 5, 8)),
            "loops": rng.choice((20, 40, 60)),
            "flops": rng.choice((5e3, 1e4, 4e4)),
            "nbytes": rng.choice((0, 2048, 8192)),
        }
    if app == "lk23":
        return {
            "n": rng.choice((8, 12, 16, 24)),
            "iterations": rng.choice((1, 2, 3)),
            "n_threads": rng.choice((4, 8, 12, 16)),
        }
    if app == "matmul":
        return {
            "n": rng.choice((16, 24, 32, 48)),
            "n_tasks": rng.choice((2, 4, 6, 8)),
        }
    return {
        "resolution": "HD",
        "frames": rng.choice((1, 2)),
        "gmm_split": rng.choice((1, 2, 4)),
        "ccl_split": rng.choice((1, 2)),
        "n_dilate": rng.choice((1, 2, 3)),
    }


def generate_programs(n: int, seed: int = 0) -> list[ProgramSpec]:
    """*n* seeded specs; apps and tap modes cycle on coprime-phase
    indices so every (app, tap_mode) pair appears within 9 specs."""
    rng = Random(seed)
    specs = []
    for i in range(n):
        app = APPS[i % len(APPS)]
        mode = TAP_MODES[(i // len(APPS)) % len(TAP_MODES)]
        specs.append(ProgramSpec(
            index=i,
            app=app,
            config=tuple(sorted(_draw_config(app, rng).items())),
            topology=rng.choice(tuple(TOPOLOGIES)),
            affinity=rng.choice((False, True)),
            seed=rng.randrange(10_000),
            tap_mode=mode,
        ))
    return specs


class CountingMonitor:
    """Every machine tap, reduced to comparable totals."""

    def __init__(self) -> None:
        self.touches = 0
        self.touch_bytes = 0.0
        self.blocks = 0
        self.finished = 0
        self.placements: list[tuple[int, int]] = []

    def on_touch(self, thread, buffer, nbytes, write) -> None:
        self.touches += 1
        self.touch_bytes += nbytes

    def on_block(self, thread, event) -> None:
        self.blocks += 1

    def on_finish(self, thread) -> None:
        self.finished += 1

    def on_place(self, pu: int, thread) -> None:
        self.placements.append((pu, thread.tid))


@dataclass
class Taps:
    """What got attached for one run (empty for mode "off")."""

    observer: SimObserver | None = None
    monitor: CountingMonitor | None = None


def _make_taps(mode: str) -> Taps:
    if mode == "off":
        return Taps()
    if mode == "on":
        ring = RingTrace(capacity=1 << 16)  # no sampling, no wraparound
    else:  # sampled: tiny ring + 1-in-4 busy — wraparound under load
        ring = RingTrace(capacity=256, sample={"busy": 4})
    return Taps(observer=SimObserver(trace=ring), monitor=CountingMonitor())


def build_chain_machine(spec: ProgramSpec, core: str, taps: Taps):
    """A dependency-chain program straight on a :class:`SimMachine`.

    The "chain" family exists because the three ORWL apps are all
    pipeline-parallel: many threads are runnable at once, so a lone
    runnable thread handing work to the next — every step a wakeup and
    a fresh placement — is rare under them. These shapes pin it down:

    ``ring``
        a single token passed around *n_threads* stages — exactly one
        runnable thread at any instant;
    ``line``
        thread 0 produces *loops* tokens through a relay of stages — a
        filling pipeline that repeatedly narrows back to a chain;
    ``stages``
        the relay with writes to buffers shared by adjacent stages —
        chain hand-offs interleaved with cache/invalidation traffic.
    """
    from repro.sim import Compute, SimMachine, Touch, Wait
    from repro.util.bitmap import Bitmap

    cfg = dict(spec.config)
    shape = cfg["shape"]
    n = cfg["n_threads"]
    loops = cfg["loops"]
    flops = cfg["flops"]
    nbytes = cfg["nbytes"]
    machine = SimMachine(
        TOPOLOGIES[spec.topology](), seed=spec.seed, core=core,
        observer=taps.observer,
    )
    events = [machine.event(f"tok{i}") for i in range(n)]
    bufs = None
    if nbytes:
        bufs = [machine.allocate(1 << 15, f"cb{i}") for i in range(n + 1)]
    pus = machine.topology.pus

    def ring_stage(i):
        nxt = events[(i + 1) % n]
        for _ in range(loops):
            yield Wait(events[i])
            yield Compute(flops)
            if bufs is not None:
                yield Touch(bufs[i], nbytes, write=True)
            nxt.signal()

    def head():
        for _ in range(loops):
            yield Compute(flops)
            if bufs is not None:
                yield Touch(bufs[0], nbytes, write=True)
            events[1].signal()

    def relay(i):
        last = i == n - 1
        for _ in range(loops):
            yield Wait(events[i])
            if shape == "stages" and bufs is not None:
                yield Touch(bufs[i], nbytes, write=False)
            yield Compute(flops)
            if bufs is not None:
                yield Touch(bufs[i + 1], nbytes, write=True)
            if not last:
                events[i + 1].signal()

    for i in range(n):
        gen = ring_stage(i) if shape == "ring" else (
            head() if i == 0 else relay(i)
        )
        cpuset = None
        if spec.affinity:
            cpuset = Bitmap.single(pus[(i * 2) % len(pus)].os_index)
        machine.add_thread(f"c{i}", gen, cpuset=cpuset)
    if shape == "ring":
        events[0].signal()
    if taps.monitor is not None:
        machine.monitors.append(taps.monitor)
        machine.scheduler.on_place.append(taps.monitor.on_place)
    return machine


def build_runtime(spec: ProgramSpec, core: str, taps: Taps) -> Runtime:
    rt = Runtime(
        TOPOLOGIES[spec.topology](),
        affinity=spec.affinity,
        seed=spec.seed,
        core=core,
        observer=taps.observer,
    )
    cfg = dict(spec.config)
    if spec.app == "lk23":
        build_orwl_lk23(rt, Lk23Config(**cfg))
    elif spec.app == "matmul":
        build_orwl_matmul(rt, MatmulConfig(**cfg))
    else:
        build_orwl_video(rt, VideoConfig(**cfg))
    if taps.monitor is not None:
        rt.machine.monitors.append(taps.monitor)
        rt.machine.scheduler.on_place.append(taps.monitor.on_place)
    return rt


def _filtered_snapshot(observer: SimObserver) -> dict:
    return {
        k: v for k, v in observer.snapshot().items()
        if not k.startswith(_CORE_ONLY_PREFIX)
    }


def run_one(spec: ProgramSpec, core: str) -> dict:
    """Execute *spec* on *core*; return the full comparable fingerprint."""
    taps = _make_taps(spec.tap_mode)
    if spec.app == "chain":
        machine = build_chain_machine(spec, core, taps)
        machine.run()
    else:
        rt = build_runtime(spec, core, taps)
        rt.run()
        machine = rt.machine
    fp = {
        "core_used": machine.core_used,
        "counters": machine.total_counters().snapshot(),
        "compute": machine.counters_by_kind("compute").snapshot(),
        "control": machine.counters_by_kind("control").snapshot(),
        "elapsed_cycles": machine.elapsed_cycles,
        "events_processed": machine.engine.events_processed,
        "thread_states": [t.state for t in machine.threads],
    }
    if taps.observer is not None:
        obs = taps.observer
        fp["metrics"] = _filtered_snapshot(obs)
        fp["ring"] = tuple(obs.ring.records())
        fp["ring_totals"] = (obs.ring.recorded, obs.ring.dropped)
        mon = taps.monitor
        fp["monitor"] = {
            "touches": mon.touches,
            "touch_bytes": mon.touch_bytes,
            "blocks": mon.blocks,
            "finished": mon.finished,
            "placements": tuple(mon.placements),
        }
    return fp


def check_program(spec: ProgramSpec) -> dict:
    """Run *spec* on both cores, assert bit-identical fingerprints.

    Returns the batched fingerprint (handy for further assertions).
    Comparison is field by field so a failure names the drifting field
    and the spec, not just "dicts differ".
    """
    fp_object = run_one(spec, "object")
    fp = run_one(spec, "batched")
    assert fp_object["core_used"] == "object", spec.describe()
    assert fp["core_used"] == "batched", spec.describe()
    for key in fp_object:
        if key == "core_used":
            continue
        assert fp[key] == fp_object[key], (
            f"{key} differs on the batched core for {spec.describe()}"
        )
    return fp


def run_smoke(n: int = 12, seed: int = 0) -> int:
    """Preflight subset for tooling (lint_repro): check the first *n*
    generated programs — apps cycle every four specs, so the default
    covers each of lk23, matmul, video and chain three times; returns
    how many passed (raises on mismatch)."""
    specs = generate_programs(n, seed=seed)
    for spec in specs:
        check_program(spec)
    return len(specs)


if __name__ == "__main__":  # pragma: no cover - manual smoke entry point
    import sys

    n = run_smoke(int(sys.argv[1])) if len(sys.argv) > 1 else run_smoke()
    print(f"difftest smoke: {n} program(s) bit-identical")
