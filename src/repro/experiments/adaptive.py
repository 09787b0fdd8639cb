"""The adaptive-remapping experiment: phase-shifting ORWL workload.

The static pipeline of the paper computes one placement at
``orwl_schedule()`` time and never revisits it. This experiment builds
the program where that is the wrong call: 32 tasks on SMP20E7 walk
through three communication phases — *stencil* (row rings of a 4x8
task grid), *transpose* (column-pair rings) and *reduce* (diagonal-pair
rings) — whose group partitions are mutually orthogonal: any placement
that co-locates one phase's rings on the 8-core NUMA nodes cuts almost
every edge of the other two. A static placement is therefore fast in
exactly one phase and pays remote-L3 misses in the other two, while
the :class:`~repro.affinity.controller.AdaptiveController` re-derives
the placement at each phase boundary and stays fast everywhere.

Buffers are sized so the resident set of a co-located node (8 x 2 MiB)
fits the 24 MiB L3 while every remote reader both misses (the owner's
per-iteration write invalidates remote copies) and blows the capacity,
which makes each phase strongly placement-sensitive — matched phases
run ~5x faster than mismatched ones.

``run_experiment()`` runs the four static placements (one per declared
phase plus the aggregate matrix) and the adaptive controller on the
same program and reports the paired speedup; ``repro-paper adapt``
renders it. All runs are deterministic: the speedups quoted in
EXPERIMENTS.md are exact simulator cycle counts, not wall-clock noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.affinity import AdaptiveController, ControllerConfig
from repro.errors import AffinityError, ReproError
from repro.orwl.runtime import Runtime
from repro.sim.process import Compute
from repro.topology.machines import smp20e7

__all__ = [
    "PHASES",
    "DECLARED",
    "AdaptSetup",
    "phase_groups",
    "phase_partner",
    "build_runtime",
    "adapt_config",
    "run_static",
    "run_windowed",
    "run_adaptive",
    "run_experiment",
]

#: The three communication phases, in program order.
PHASES = ("stencil", "transpose", "reduce")
#: Static declarations: each phase's matrix plus the all-phase average.
DECLARED = PHASES + ("aggregate",)

_N = 32  # 4x8 task grid; the group math below is specific to it.
_ROWS, _COLS = 4, 8
_NODE = 8  # PUs (= cores) per NUMA node on SMP20E7


def phase_groups(phase: int) -> list[list[int]]:
    """The four 8-task groups of *phase* (0=stencil, 1=transpose, 2=reduce).

    Tasks live on a 4x8 grid, ``i = x * 8 + y``. Phase 0 groups by row,
    phase 1 by column pair (column-major order), phase 2 by diagonal
    pair ``d = (y - x) % 8``. Any two partitions intersect in at most
    four tasks, so no single node assignment serves two phases.
    """
    if phase == 0:
        return [[x * _COLS + y for y in range(_COLS)] for x in range(_ROWS)]
    if phase == 1:
        return [
            [x * _COLS + (2 * c + k) for k in range(2) for x in range(_ROWS)]
            for c in range(_COLS // 2)
        ]
    if phase == 2:
        out = []
        for e in range(_COLS // 2):
            grp = []
            for k in range(2):
                d = 2 * e + k
                grp.extend(x * _COLS + ((x + d) % _COLS) for x in range(_ROWS))
            out.append(grp)
        return out
    raise ReproError(f"phase must be 0, 1 or 2, got {phase}")


_PARTNER: dict = {}
for _p in range(3):
    for _grp in phase_groups(_p):
        for _idx, _i in enumerate(_grp):
            _PARTNER[(_i, _p)] = _grp[(_idx + 1) % len(_grp)]


def phase_partner(i: int, phase: int) -> int:
    """Task *i*'s ring successor within its *phase* group."""
    try:
        return _PARTNER[(i, phase)]
    except KeyError:
        raise ReproError(f"no partner for task {i} phase {phase}") from None


@dataclass(frozen=True)
class AdaptSetup:
    """Workload knobs; the defaults are the published experiment.

    ``shift=False`` gives the phase-stable control program: identical
    structure and declared matrix, but the heavy traffic stays on the
    stencil partners throughout — the controller must do nothing on it
    (the zero-remap differential family and the overhead gate both run
    this variant).
    """

    iters_per_phase: int = 24
    heavy_bytes: int = 1 << 21
    light_bytes: int = 64
    compute_cycles: float = 2e5
    loc_bytes: int = 1 << 21
    seed: int = 1
    shift: bool = True

    def __post_init__(self) -> None:
        if self.iters_per_phase < 1:
            raise ReproError("iters_per_phase must be >= 1")
        if not (0 < self.light_bytes <= self.heavy_bytes <= self.loc_bytes):
            raise ReproError(
                "need 0 < light_bytes <= heavy_bytes <= loc_bytes"
            )


def adapt_config() -> ControllerConfig:
    """The controller tuning the experiment's numbers are quoted at.

    Windows of 2 Mcycles cover roughly one pipelined iteration of all
    32 tasks; two calibration windows absorb startup burstiness; two
    gather windows after a trigger let the estimator fill in the new
    phase's full ring edge set before TreeMatch runs.
    """
    return ControllerConfig(
        window_cycles=2e6, calibrate_windows=2, gather_windows=2
    )


def build_runtime(
    declared: str,
    setup: AdaptSetup | None = None,
    *,
    marks: dict | None = None,
) -> Runtime:
    """Build the phase-shift program with *declared* traffic hints.

    *declared* names the phase whose partners are declared heavy (what
    a programmer profiling only that phase would write down), or
    ``"aggregate"`` for the per-phase average — the best honest static
    declaration. If *marks* is given, the simulated cycle at which each
    phase completes (all tasks past their last iteration of it) is
    recorded under keys 0, 1, 2.
    """
    setup = setup or AdaptSetup()
    if declared not in DECLARED:
        raise ReproError(
            f"unknown declared phase {declared!r}; choose from {DECLARED}"
        )
    heavy, light = setup.heavy_bytes, setup.light_bytes
    rt = Runtime(smp20e7(), affinity=True, seed=setup.seed)
    tasks = [rt.task(f"t{i}") for i in range(_N)]
    locs = [t.location("slot", setup.loc_bytes) for t in tasks]
    handles: dict[int, list] = {}
    for i, t in enumerate(tasks):
        t.write_handle(locs[i], iterative=True)
        handles[i] = [
            t.read_handle(locs[phase_partner(i, p)], iterative=True)
            for p in range(3)
        ]
    declared_idx = dict(zip(PHASES, range(3))).get(declared)
    for i in range(_N):
        for k in range(3):
            if declared_idx is None:  # aggregate
                handles[i][k].traffic = (heavy + 2 * light) / 3.0
            else:
                handles[i][k].traffic = heavy if k == declared_idx else light
    ipp = setup.iters_per_phase
    shift = setup.shift
    remaining = [_N] * 3
    machine = rt.machine

    def make_body(i: int):
        hs = handles[i]

        def body(op):
            hw = op.handles[0]
            for it in range(3 * ipp):
                ph = it // ipp if shift else 0
                yield from hw.acquire()
                yield hw.touch()
                yield Compute(setup.compute_cycles)
                hw.release()
                for k, h in enumerate(hs):
                    yield from h.acquire()
                    yield h.touch(heavy if k == ph else light)
                    h.release()
                if marks is not None and it % ipp == ipp - 1:
                    done = it // ipp
                    remaining[done] -= 1
                    if remaining[done] == 0:
                        marks[done] = machine.engine.now

        return body

    for i, t in enumerate(tasks):
        t.set_body(make_body(i))
    rt.schedule()
    return rt


def run_static(declared: str, setup: AdaptSetup | None = None) -> dict:
    """One static run; returns seconds and per-phase cycle counts."""
    marks: dict = {}
    rt = build_runtime(declared, setup, marks=marks)
    result = rt.run()
    return {
        "declared": declared,
        "seconds": result.seconds,
        "phase_cycles": _phase_cycles(marks),
    }


def run_windowed(declared: str, setup: AdaptSetup | None = None,
                 *, window_cycles: float | None = None) -> dict:
    """One *uncontrolled* windowed run: same epoch substrate as the
    controller (``run_window`` at the same horizon spacing) but no
    telemetry, no drift scoring, no remaps.

    This is the honest baseline for the controller-overhead probe: the
    windowed drain pays a per-epoch teardown/re-entry cost that exists
    with or without a controller on top (any loop of ``run_window``
    calls pays it), so comparing the controlled run against it isolates
    what the *controller* adds. ``docs/ADAPTIVE.md`` reports both
    components.
    """
    if window_cycles is None:
        window_cycles = adapt_config().window_cycles
    marks: dict = {}
    rt = build_runtime(declared, setup, marks=marks)
    rt.prepare_run()
    machine = rt.machine
    threads = machine.threads
    horizon = machine.engine.now + window_cycles
    windows = 0
    max_windows = ControllerConfig().max_windows
    while not all(t.state == "done" for t in threads):
        if windows >= max_windows:
            raise AffinityError(
                f"uncontrolled windowed run exceeded {max_windows} windows"
            )
        machine.run_window(horizon)
        machine.raise_if_deadlocked()
        horizon += window_cycles
        windows += 1
    result = rt._build_result(machine.window_drained_at / machine.clock_hz)
    return {
        "declared": declared,
        "seconds": result.seconds,
        "phase_cycles": _phase_cycles(marks),
        "windows": windows,
    }


def run_adaptive(
    setup: AdaptSetup | None = None,
    *,
    config: ControllerConfig | None = None,
    registry=None,
) -> dict:
    """One adaptive run (initial declaration: stencil, like a profiler
    that only saw the first phase); returns seconds, per-phase cycles
    and the controller's remap decisions."""
    marks: dict = {}
    rt = build_runtime("stencil", setup, marks=marks)
    controller = AdaptiveController.for_orwl(
        rt, config=config or adapt_config(), registry=registry
    )
    result = controller.run()
    return {
        "seconds": result.seconds,
        "phase_cycles": _phase_cycles(marks),
        "remaps": [d.to_dict() for d in controller.decisions],
        "windows": controller.windows_run,
        "controller": controller,
    }


def _phase_cycles(marks: dict) -> list[float]:
    if sorted(marks) != [0, 1, 2]:
        return []
    return [marks[0], marks[1] - marks[0], marks[2] - marks[1]]


def run_experiment(setup: AdaptSetup | None = None,
                   config: ControllerConfig | None = None) -> dict:
    """Full comparison: every static declaration vs the controller.

    ``speedup`` is best-static seconds over adaptive seconds — the
    number gated (>= 1.1) by ``scripts/bench_repro.py --check``.
    """
    setup = setup or AdaptSetup()
    statics = {d: run_static(d, setup) for d in DECLARED}
    adaptive = run_adaptive(setup, config=config)
    best = min(statics.values(), key=lambda r: r["seconds"])
    return {
        "setup": {
            "iters_per_phase": setup.iters_per_phase,
            "heavy_bytes": setup.heavy_bytes,
            "loc_bytes": setup.loc_bytes,
            "shift": setup.shift,
        },
        "statics": {d: r["seconds"] for d, r in statics.items()},
        "phase_cycles": {d: r["phase_cycles"] for d, r in statics.items()},
        "adaptive_seconds": adaptive["seconds"],
        "adaptive_phase_cycles": adaptive["phase_cycles"],
        "remaps": adaptive["remaps"],
        "windows": adaptive["windows"],
        "best_static": best["declared"],
        "best_static_seconds": best["seconds"],
        "speedup": best["seconds"] / adaptive["seconds"],
    }


@dataclass
class _Row:  # small helper for the CLI rendering
    name: str
    seconds: float
    note: str = ""
    ratio: float = field(default=0.0)


def format_experiment(report: dict) -> str:
    """Plain-text rendering for ``repro-paper adapt``."""
    rows = [
        _Row(d, s, "declared " + d)
        for d, s in sorted(report["statics"].items(), key=lambda kv: kv[1])
    ]
    rows.append(_Row("adaptive", report["adaptive_seconds"],
                     f"{len(report['remaps'])} remap(s)"))
    best = report["best_static_seconds"]
    lines = ["phase-shift experiment (SMP20E7, 32 tasks, 3 phases)", ""]
    for row in rows:
        row.ratio = best / row.seconds
        lines.append(
            f"  {row.name:<12} {row.seconds * 1e3:8.3f} ms   "
            f"x{row.ratio:5.3f}   {row.note}"
        )
    lines.append("")
    for dec in report["remaps"]:
        lines.append(
            f"  remap @ window {dec['window']}: drift={dec['drift']:.3f} "
            f"moved={dec['moved']} "
            f"({'warm-started' if dec['warm'] else 'cold'} TreeMatch)"
        )
    lines.append(
        f"  adaptive speedup over best static ({report['best_static']}): "
        f"x{report['speedup']:.3f}"
    )
    return "\n".join(lines)
