"""The four benchmark workloads.

Each workload is a closed loop: one client issues operations
back-to-back, in-process, with one worker (``jobs=1``). A workload
prepares its inputs in :meth:`Workload.setup` (repeated, so its median
is the set-up time), then the harness times whole passes of
:meth:`Workload.run_pass`. A pass returns a JSON-safe output whose
sha256 is the pass digest; every pass of a run must reproduce the
digest of the first.

The program only sees generated inputs: the seed goes to the
experiment cells' ``seed=``, to ``AdaptSetup(seed=)`` and to the
task-label permutation of the mapping inputs.

Importing this module imports the program, so the harness times the
import as part of set-up.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil

import numpy as np

import repro.experiments as experiments  # before repro.parallel: import cycle
import repro.parallel  # noqa: F401  (its import cost belongs to set-up)
from repro.analyze.report import json_text
from repro.experiments import adaptive
from repro.topology import machine_by_name
from repro.treematch import CommunicationMatrix, mapping, strategies

from bench.harness import digest

__all__ = ["WORKLOADS", "Workload"]


class Workload:
    """What the harness drives; subclasses override what they need."""

    name = ""
    #: How many times set-up runs; the reported set-up time is the median.
    setup_reps = 3
    #: ``(module, attribute)`` of the function whose calls are the
    #: workload's operations, timed by a wrapper; None when
    #: :meth:`run_pass` times its operations itself.
    op_target: tuple[str, str] | None = None
    #: What ``work_per_s`` counts: ``"sim.events"`` (simulated events,
    #: counted around ``SimMachine.run``/``run_window``), ``"ops"``
    #: (operations) or ``"tasks"`` (tasks mapped, added by the pass).
    work_unit = "ops"

    def setup(self) -> None:
        pass

    def before_pass(self) -> None:
        """Untimed preparation of the next pass."""

    def run_pass(self, recorder):
        raise NotImplementedError

    def after_pass(self) -> None:
        """Untimed clean-up after a pass."""

    def check(self, output) -> list[str]:
        """Problems with one pass's output (empty when correct)."""
        return []


# -- paper-cold / paper-warm ---------------------------------------------------

#: The experiment calls of ``scripts/regenerate_all.py``, in its order:
#: ``(raw key or None, function, machine)``. Rendering and the lint /
#: bench preflight are left out.
PAPER_CALLS = (
    (None, "table1_machines", None),
    ("fig1", "fig1_comm_matrix", None),
    (None, "fig2_allocation", None),
    ("fig4_SMP12E5", "fig4_lk23", "SMP12E5"),
    ("fig4_SMP20E7", "fig4_lk23", "SMP20E7"),
    ("table2", "table2_lk23_counters", None),
    ("fig5_SMP12E5", "fig5_matmul", "SMP12E5"),
    ("fig5_SMP20E7", "fig5_matmul", "SMP20E7"),
    ("table3", "table3_matmul_counters", None),
    ("fig6_SMP12E5-4S", "fig6_video", "SMP12E5-4S"),
    ("fig6_SMP20E7-4S", "fig6_video", "SMP20E7-4S"),
    ("table4", "table4_video_counters", None),
)


def paper_pass(seed: int, calls=PAPER_CALLS, sweep_kwargs=None) -> dict:
    """One regeneration; returns the ``raw`` dict ``regenerate_all`` dumps.

    Scale, cache directory and worker count come from the ``REPRO_*``
    environment exactly as in ``regenerate_all`` (``jobs``/``cache``
    left to their defaults). Functions are looked up on the package at
    call time, so wrappers installed by the harness are seen.
    *sweep_kwargs* maps a figure function to extra keyword arguments
    (the self-tests shrink the sweeps with ``cores=``).
    """
    sweep_kwargs = sweep_kwargs or {}
    raw: dict = {"scale": experiments.current_scale().name}
    for key, fn_name, machine in calls:
        fn = getattr(experiments, fn_name)
        if key is None:
            fn()
        elif fn_name == "fig1_comm_matrix":
            comm, _ = fn()
            raw[key] = comm.raw.tolist()
        elif fn_name.startswith("table"):
            raw[key] = [vars(r) for r in fn(seed=seed)]
        else:
            fig = fn(machine, seed=seed, **sweep_kwargs.get(fn_name, {}))
            raw[key] = [(s.label, s.x, s.y) for s in fig.series]
    return raw


def check_paper(raw: dict) -> list[str]:
    problems = []
    for key, value in raw.items():
        if key.startswith("fig") and key != "fig1":
            for label, _, ys in value:
                if not all(math.isfinite(y) and y > 0 for y in ys):
                    problems.append(f"{key} {label}: non-positive value")
        elif key.startswith("table"):
            for row in value:
                if not row["seconds"] > 0:
                    problems.append(f"{key} {row['variant']}: non-positive time")
                # Every thread is pinned, so migrations are provably zero.
                if row["variant"] == "ORWL (Affinity)" and row["cpu_migrations"]:
                    problems.append(f"{key} ORWL (Affinity): migrations")
    return problems


class _Paper(Workload):
    """The regeneration at ``scale``, with a cache directory per use."""

    scale = ""

    def __init__(self, seed: int, work_dir: str, *, calls=PAPER_CALLS,
                 sweep_kwargs: dict | None = None):
        self.seed = seed
        self.work_dir = work_dir
        self.calls = calls
        self.sweep_kwargs = sweep_kwargs
        self._n = 0

    def _fresh_cache(self) -> str:
        """Point ``REPRO_SCALE`` and ``REPRO_CACHE_DIR`` at this
        workload's scale and a new, empty cache directory."""
        self._n += 1
        path = os.path.join(self.work_dir, f"cache-{self._n}")
        os.environ["REPRO_SCALE"] = self.scale
        os.environ["REPRO_CACHE_DIR"] = path
        return path

    def run_pass(self, recorder) -> dict:
        return paper_pass(self.seed, self.calls, self.sweep_kwargs)

    def check(self, output) -> list[str]:
        return check_paper(output)


class PaperCold(_Paper):
    """``regenerate_all`` at QUICK scale against an empty cache."""

    name = "paper-cold"
    op_target = ("repro.parallel.jobs", "run_cell")
    work_unit = "sim.events"
    scale = "quick"

    def setup(self) -> None:
        # Imports and memoized presets: one small cell of each
        # application plus the structural figures, on a fresh cache.
        path = self._fresh_cache()
        tiny = experiments.TINY
        experiments.table1_machines()
        experiments.fig1_comm_matrix()
        experiments.fig2_allocation()
        for machine in ("SMP12E5", "SMP20E7"):
            experiments.fig4_lk23(machine, scale=tiny, cores=[8], seed=self.seed)
            experiments.fig5_matmul(machine, scale=tiny, cores=[8], seed=self.seed)
        experiments.fig6_video("SMP12E5-4S", scale=tiny, resolutions=["HD"],
                               seed=self.seed)
        shutil.rmtree(path, ignore_errors=True)

    def before_pass(self) -> None:
        self._fresh_cache()

    def after_pass(self) -> None:
        shutil.rmtree(os.environ["REPRO_CACHE_DIR"], ignore_errors=True)


class PaperWarm(_Paper):
    """The same calls at TINY scale, served from a cache set-up filled."""

    name = "paper-warm"
    # Filling the cache is a cold TINY regeneration (~11 s); it runs once.
    setup_reps = 1
    op_target = ("repro.parallel.cache", "ResultCache.get")
    work_unit = "ops"
    scale = "tiny"

    def setup(self) -> None:
        self._fresh_cache()
        self.fill_digest = digest(self.run_pass(None))

    def check(self, output) -> list[str]:
        problems = check_paper(output)
        if digest(output) != self.fill_digest:
            problems.append("warm pass differs from the cold pass that "
                            "filled the cache")
        return problems


# -- map -------------------------------------------------------------------------

#: ``(pattern, tasks)``: two 10^5-task multilevel maps and one dense
#: greedy+refine map below the 8192-task cutover.
MAP_INPUTS = (("stencil", 100_000), ("ring", 100_000), ("stencil", 4096))


def _pattern(pattern: str, n: int) -> CommunicationMatrix:
    """The synthetic matrices of ``repro-paper map``."""
    if pattern == "stencil":
        return CommunicationMatrix.stencil2d(n)
    return CommunicationMatrix.from_edges(
        n, {(i, (i + 1) % n): 100.0 for i in range(n)} if n > 1 else {}
    )


def _permuted(comm: CommunicationMatrix, perm: np.ndarray) -> CommunicationMatrix:
    """*comm* with its task labels permuted: new task ``i`` is old ``perm[i]``."""
    if comm.is_sparse:
        return CommunicationMatrix(comm.tocsr()[perm][:, perm])
    return CommunicationMatrix(comm.raw[np.ix_(perm, perm)])


class Map(Workload):
    """What ``repro-paper map --json`` does, on seed-permuted inputs."""

    name = "map"
    work_unit = "tasks"
    machine = "SMP20E7"

    def __init__(self, seed: int, work_dir: str, *, inputs=MAP_INPUTS):
        self.seed = seed
        self.inputs = inputs
        self.matrices: list = []
        self.placements: list = []

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.topo = machine_by_name(self.machine)
        self.matrices = [
            (pattern, n, _permuted(_pattern(pattern, n), rng.permutation(n)))
            for pattern, n in self.inputs
        ]

    def _map_one(self, tracer, pattern: str, n: int, comm):
        topo = self.topo
        strategy = strategies.mapping_strategy("auto", n)
        if strategy == "multilevel":
            placement = mapping.multilevel_map(topo, comm, n_jobs=1)
        else:
            placement = mapping.treematch_map(topo, comm)
        cost = placement.cost(topo, comm)
        slit_cost = placement.slit_cost(topo, comm)

        def render() -> str:
            return json_text({
                "machine": self.machine,
                "threads": n,
                "pattern": pattern,
                "strategy": strategy,
                "cost": cost,
                "slit_cost": slit_cost,
                "placement": placement.to_dict(),
            })

        text = render() if tracer is None else tracer.span("map.render", render)
        return hashlib.sha256(text.encode()).hexdigest(), placement

    def run_pass(self, recorder) -> list:
        out = []
        self.placements = []
        for pattern, n, comm in self.matrices:
            sha, placement = recorder.call(
                self._map_one, recorder.tracer, pattern, n, comm
            )
            out.append(sha)
            self.placements.append((placement, n))
            recorder.work += n
        return out

    def check(self, output) -> list[str]:
        problems = []
        for placement, n in self.placements:
            bad = placement.violations(self.topo, n_threads=n)
            if bad:
                problems.append(f"{n}-task placement: {bad[0][1]}")
        return problems


# -- adapt -----------------------------------------------------------------------


class Adapt(Workload):
    """``repro-paper adapt`` and ``repro-paper adapt phase-stable``.

    The operations are the ``adapt`` subcommand and the two program
    runs of ``adapt phase-stable`` (uncontrolled, then controlled):
    three operations of three sizes per pass, so the median operation
    is one kind's median rather than a point between two kinds.
    """

    name = "adapt"
    work_unit = "sim.events"

    def __init__(self, seed: int, work_dir: str, *, iters_per_phase: int = 24):
        self.shift = adaptive.AdaptSetup(iters_per_phase=iters_per_phase, seed=seed)
        self.stable = adaptive.AdaptSetup(iters_per_phase=iters_per_phase,
                                          seed=seed, shift=False)

    def setup(self) -> None:
        # Program build and presets, without running the simulator.
        adaptive.build_runtime("stencil", self.shift)

    def _uncontrolled(self):
        return adaptive.build_runtime("stencil", self.stable).run()

    def run_pass(self, recorder) -> dict:
        report = recorder.call(adaptive.run_experiment, self.shift)
        baseline = recorder.call(self._uncontrolled)
        run = recorder.call(adaptive.run_adaptive, self.stable)
        return {
            "phase-shift": report,
            "phase-stable": {
                "uncontrolled_seconds": baseline.seconds,
                "adaptive_seconds": run["seconds"],
                "remaps": run["remaps"],
                "windows": run["windows"],
            },
        }

    def check(self, output) -> list[str]:
        problems = []
        shift, stable = output["phase-shift"], output["phase-stable"]
        if not shift["remaps"]:
            problems.append("phase-shift: the controller never remapped")
        if not shift["speedup"] > 1.0:
            problems.append(f"phase-shift: adaptive speedup {shift['speedup']}")
        if stable["remaps"]:
            problems.append("phase-stable: the controller remapped")
        if stable["adaptive_seconds"] != stable["uncontrolled_seconds"]:
            problems.append("phase-stable: the controlled run differs from "
                            "the uncontrolled one")
        return problems


WORKLOADS = {w.name: w for w in (PaperCold, PaperWarm, Map, Adapt)}
