"""Job specs and the registry of experiment cells.

A :class:`Job` is a pure, picklable description of one experiment cell —
the unit the executor fans out over worker processes and the cache keys
its entries by. Everything in it is a JSON-safe scalar: the cell name
(a registry key, never a function object), the problem scale flattened
to its parameter tuple, the cell parameters as sorted ``(name, value)``
pairs, and the seed.

Cells are registered once per figure/table *application* (LK23, matmul,
video) and return the full measurement of the simulated run — seconds,
GFLOP/s where meaningful, and the counter snapshot — so a Fig. 4 sweep
and a Table II row at the same configuration share one cache entry.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    # repro.experiments imports repro.parallel at module top; importing
    # it back here at load time would be a cycle.
    from repro.experiments.runner import Scale

__all__ = ["Job", "CELLS", "make_job", "run_cell", "encode_scale", "decode_scale"]


def encode_scale(scale: Scale) -> tuple[tuple[str, Any], ...]:
    """Flatten a scale into sorted, hashable (field, value) pairs."""
    return tuple(sorted(dataclasses.asdict(scale).items()))


def decode_scale(pairs) -> Scale:
    from repro.experiments.runner import Scale

    return Scale(**dict(pairs))


@dataclass(frozen=True)
class Job:
    """One experiment cell: pure inputs, JSON-safe, picklable."""

    cell: str
    scale: tuple[tuple[str, Any], ...]
    params: tuple[tuple[str, Any], ...]
    seed: int

    def to_dict(self) -> dict:
        return {
            "cell": self.cell,
            "scale": dict(self.scale),
            "params": dict(self.params),
            "seed": self.seed,
        }

    def __repr__(self) -> str:  # pragma: no cover
        kv = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"<Job {self.cell}({kv}) seed={self.seed}>"


def make_job(cell: str, scale: Scale, params: dict, seed: int) -> Job:
    """Build a job, validating the cell name early (in the parent)."""
    if cell not in CELLS:
        raise ReproError(f"unknown cell {cell!r}; known: {sorted(CELLS)}")
    return Job(
        cell=cell,
        scale=encode_scale(scale),
        params=tuple(sorted(params.items())),
        seed=seed,
    )


def run_cell(job: Job):
    """Execute one job (in whatever process it lands on)."""
    try:
        fn = CELLS[job.cell]
    except KeyError:
        raise ReproError(
            f"unknown cell {job.cell!r}; known: {sorted(CELLS)}"
        ) from None
    return fn(scale=decode_scale(job.scale), seed=job.seed, **dict(job.params))


CELLS: dict[str, Callable[..., Any]] = {}


def _cell(name: str):
    def register(fn):
        CELLS[name] = fn
        return fn

    return register


def _counter_payload(counters) -> dict:
    """Counter fields in CounterRow units; switch/migration counts stay int."""
    return {
        "l3_misses": counters.l3_misses,
        "stalled_cycles": counters.stalled_cycles,
        "context_switches": counters.context_switches,
        "cpu_migrations": counters.cpu_migrations,
    }


# -- the three applications ----------------------------------------------------
#
# Variant slugs are canonical cache/dispatch keys; display labels ("ORWL
# (affinity)" vs "ORWL (Affinity)") stay in the figure/table assemblers.


@_cell("lk23")
def _lk23_cell(*, scale: Scale, machine: str, variant: str, n_threads: int, seed: int) -> dict:
    from repro.apps.lk23 import Lk23Config, run_openmp_lk23, run_orwl_lk23
    from repro.topology import machine_by_name

    cfg = Lk23Config(
        n=scale.lk23_n, iterations=scale.lk23_iterations, n_threads=n_threads
    )
    topo = machine_by_name(machine)
    if variant == "orwl":
        res = run_orwl_lk23(topo, cfg, affinity=False, seed=seed)
    elif variant == "orwl-affinity":
        res = run_orwl_lk23(topo, cfg, affinity=True, seed=seed)
    elif variant == "openmp":
        res = run_openmp_lk23(topo, cfg, binding=None, seed=seed)
    elif variant == "openmp-affinity":
        res = run_openmp_lk23(topo, cfg, binding="close", seed=seed)
    else:
        raise ReproError(f"unknown lk23 variant {variant!r}")
    return {"seconds": res.seconds, "counters": _counter_payload(res.counters)}


@_cell("matmul")
def _matmul_cell(*, scale: Scale, machine: str, variant: str, n_tasks: int, seed: int) -> dict:
    from repro.apps.matmul import MatmulConfig, run_orwl_matmul
    from repro.openmp.mkl import threaded_dgemm
    from repro.topology import machine_by_name

    topo = machine_by_name(machine)
    if variant in ("orwl", "orwl-affinity"):
        res = run_orwl_matmul(
            topo,
            MatmulConfig(n=scale.matmul_n, n_tasks=n_tasks),
            affinity=(variant == "orwl-affinity"),
            seed=seed,
        )
    elif variant in ("mkl", "mkl-scatter", "mkl-compact"):
        binding = None if variant == "mkl" else variant.split("-", 1)[1]
        res = threaded_dgemm(topo, scale.matmul_n, n_tasks, binding=binding, seed=seed)
    else:
        raise ReproError(f"unknown matmul variant {variant!r}")
    return {
        "seconds": res.seconds,
        "gflops": res.gflops,
        "counters": _counter_payload(res.counters),
    }


@_cell("video")
def _video_cell(*, scale: Scale, machine: str, variant: str, resolution: str, seed: int) -> dict:
    from repro.apps.video import (
        VideoConfig,
        run_openmp_video,
        run_orwl_video,
        run_sequential_video,
    )
    from repro.topology import machine_by_name

    frames = scale.video_frames_4k if resolution == "4K" else scale.video_frames
    cfg = VideoConfig(resolution=resolution, frames=frames)
    topo = machine_by_name(machine)
    if variant == "sequential":
        res = run_sequential_video(topo, cfg, seed=seed)
    elif variant == "openmp":
        res = run_openmp_video(topo, cfg, 30, binding=None, seed=seed)
    elif variant == "openmp-affinity":
        res = run_openmp_video(topo, cfg, 30, binding="close", seed=seed)
    elif variant == "orwl":
        res, _ = run_orwl_video(topo, cfg, affinity=False, seed=seed)
    elif variant == "orwl-affinity":
        res, _ = run_orwl_video(topo, cfg, affinity=True, seed=seed)
    else:
        raise ReproError(f"unknown video variant {variant!r}")
    return {
        "seconds": res.seconds,
        "frames": frames,
        "counters": _counter_payload(res.counters),
    }
