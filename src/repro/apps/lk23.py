"""Livermore Kernel 23 — 2-D implicit hydrodynamics fragment (Sec. V-A).

The kernel (Listing 2 of the paper)::

    for l in 1..loop:
      for j in 1..m-1:
        for k in 1..n-1:
          qa = za[j+1][k]*zr[j][k] + za[j-1][k]*zb[j][k]
             + za[j][k+1]*zu[j][k] + za[j][k-1]*zv[j][k] + zz[j][k]
          za[j][k] += 0.175*(qa - za[j][k])

is a Gauss-Seidel sweep: ``za[j-1]``/``za[j][k-1]`` are *updated* values,
``za[j+1]``/``za[j][k+1]`` are previous-iteration values. Parallelized by
blocking ``za`` into a grid and pipelining the NW→SE wavefront.

ORWL decomposition (one task per block, 4 operations as in Sec. VI-B.1):

* ``north`` — updates the block's first row (consumes the N neighbour's
  published bottom row);
* ``west`` — updates the first column (consumes the W neighbour's right
  column);
* ``diag`` — updates the corner cell (consumes one element of each);
* ``center`` — updates the interior *and publishes* the block's bottom
  row (``s_edge``) and right column (``e_edge``) locations.

The four operations rotate write access on the block's ``interior``
location in exactly that order, which reproduces the sequential update
order bit-for-bit — data-execution runs are compared to the sequential
reference with exact equality, a strong test of the FIFO semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Callable

import numpy as np

from repro.errors import ReproError
from repro.openmp.runtime import OMPResult, OpenMPRuntime
from repro.orwl.runtime import Runtime, RunResult
from repro.sim.params import CostModel
from repro.sim.process import Compute, Touch
from repro.topology.tree import Topology

__all__ = [
    "Lk23Config",
    "lk23_reference",
    "make_lk23_arrays",
    "choose_grid",
    "build_orwl_lk23",
    "run_orwl_lk23",
    "run_openmp_lk23",
    "FLOPS_PER_CELL",
]

#: 4 mult + 4 add for qa, then sub/mult/add for the relaxation update.
FLOPS_PER_CELL = 11.0
RELAX = 0.175
#: za plus the five coefficient arrays streamed per swept cell.
ARRAYS_TOUCHED = 6


@dataclass(frozen=True)
class Lk23Config:
    """Problem and decomposition parameters.

    ``n_threads`` is the x-axis of Fig. 4: with 4 operations per block,
    ``n_threads // 4`` blocks are used (a single block below 4 threads,
    matching the paper's description of its runs).
    """

    n: int = 16384  # matrix is n × n doubles
    iterations: int = 100
    n_threads: int = 64
    execute_data: bool = False

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ReproError("matrix order must be >= 4")
        if self.iterations < 1 or self.n_threads < 1:
            raise ReproError("iterations and n_threads must be >= 1")

    @property
    def n_blocks(self) -> int:
        return max(1, self.n_threads // 4)


def choose_grid(n_blocks: int) -> tuple[int, int]:
    """Near-square (rows, cols) factorization of *n_blocks*."""
    if n_blocks < 1:
        raise ReproError("n_blocks must be >= 1")
    best = (1, n_blocks)
    for gh in range(1, isqrt(n_blocks) + 1):
        if n_blocks % gh == 0:
            best = (gh, n_blocks // gh)
    return best


# -- sequential reference ---------------------------------------------------------


def lk23_reference(
    za: np.ndarray,
    zb: np.ndarray,
    zr: np.ndarray,
    zu: np.ndarray,
    zv: np.ndarray,
    zz: np.ndarray,
    iterations: int,
) -> np.ndarray:
    """The sequential kernel, exactly as in Listing 2 (in place on a copy)."""
    za = za.copy()
    m, n = za.shape
    for _ in range(iterations):
        for j in range(1, m - 1):
            for k in range(1, n - 1):
                qa = (
                    za[j + 1, k] * zr[j, k]
                    + za[j - 1, k] * zb[j, k]
                    + za[j, k + 1] * zu[j, k]
                    + za[j, k - 1] * zv[j, k]
                    + zz[j, k]
                )
                za[j, k] += RELAX * (qa - za[j, k])
    return za


def make_lk23_arrays(n: int, seed: int = 0) -> dict[str, np.ndarray]:
    """Deterministic random inputs (coefficients scaled for stability)."""
    rng = np.random.default_rng(seed)
    return {
        "za": rng.random((n, n)),
        "zb": rng.random((n, n)) * 0.2,
        "zr": rng.random((n, n)) * 0.2,
        "zu": rng.random((n, n)) * 0.2,
        "zv": rng.random((n, n)) * 0.2,
        "zz": rng.random((n, n)) * 0.1,
    }


def _sweep_cells(arrays: dict[str, np.ndarray], cells) -> None:
    """Apply the update to an iterable of (j, k) cells, in order."""
    za = arrays["za"]
    zb, zr = arrays["zb"], arrays["zr"]
    zu, zv, zz = arrays["zu"], arrays["zv"], arrays["zz"]
    for j, k in cells:
        qa = (
            za[j + 1, k] * zr[j, k]
            + za[j - 1, k] * zb[j, k]
            + za[j, k + 1] * zu[j, k]
            + za[j, k - 1] * zv[j, k]
            + zz[j, k]
        )
        za[j, k] += RELAX * (qa - za[j, k])


# -- ORWL implementation ---------------------------------------------------------------


class _Block:
    """Geometry of one block in the grid (global coordinates)."""

    def __init__(self, cfg: Lk23Config, gh: int, gw: int, bi: int, bj: int):
        self.bi, self.bj = bi, bj
        n = cfg.n
        self.r0 = bi * n // gh
        self.r1 = (bi + 1) * n // gh
        self.c0 = bj * n // gw
        self.c1 = (bj + 1) * n // gw
        # Updated cell ranges (global boundary rows/cols are fixed).
        self.row_lo = self.r0 + 1 if bi > 0 else 1
        self.row_hi = min(self.r1, n - 1)
        self.col_lo = self.c0 + 1 if bj > 0 else 1
        self.col_hi = min(self.c1, n - 1)
        self.has_north = bi > 0
        self.has_west = bj > 0

    # Cell iterables per operation (generators — cheap in cost-only mode,
    # where only the counts below are used).
    def diag_cells(self):
        if self.has_north and self.has_west:
            yield (self.r0, self.c0)

    def north_cells(self):
        if self.has_north:
            for k in range(self.col_lo, self.col_hi):
                yield (self.r0, k)

    def west_cells(self):
        if self.has_west:
            for j in range(self.row_lo, self.row_hi):
                yield (j, self.c0)

    def center_cells(self):
        for j in range(self.row_lo, self.row_hi):
            for k in range(self.col_lo, self.col_hi):
                yield (j, k)

    def diag_count(self) -> int:
        return 1 if (self.has_north and self.has_west) else 0

    def north_count(self) -> int:
        return max(0, self.col_hi - self.col_lo) if self.has_north else 0

    def west_count(self) -> int:
        return max(0, self.row_hi - self.row_lo) if self.has_west else 0

    def center_count(self) -> int:
        return max(0, self.row_hi - self.row_lo) * max(0, self.col_hi - self.col_lo)

    @property
    def rows(self) -> int:
        return self.r1 - self.r0

    @property
    def cols(self) -> int:
        return self.c1 - self.c0

    @property
    def interior_bytes(self) -> int:
        return self.rows * self.cols * 8

    @property
    def edge_row_bytes(self) -> int:
        return self.cols * 8

    @property
    def edge_col_bytes(self) -> int:
        return self.rows * 8


def build_orwl_lk23(
    runtime: Runtime,
    cfg: Lk23Config,
    arrays: dict[str, np.ndarray] | None = None,
) -> dict:
    """Declare the full LK23 task/location graph on *runtime*.

    With *arrays* given (small sizes), operations execute the real
    computation on the shared ``za`` in addition to yielding their cost
    model, and the result is bit-identical to :func:`lk23_reference`.
    """
    if cfg.execute_data and arrays is None:
        raise ReproError("execute_data requires the input arrays")
    gh, gw = choose_grid(cfg.n_blocks)
    blocks: dict[tuple[int, int], _Block] = {}
    tasks: dict[tuple[int, int], dict] = {}

    single_op = cfg.n_threads < 4

    for bi in range(gh):
        for bj in range(gw):
            blk = _Block(cfg, gh, gw, bi, bj)
            blocks[bi, bj] = blk
            task = runtime.task(f"blk{bi}_{bj}")
            entry: dict = {"task": task, "block": blk}
            if single_op:
                entry["ops"] = {"center": task.operation("center")}
            else:
                # Creation order fixes the interior write rotation:
                # diag → north → west → center (the sequential sweep order).
                entry["ops"] = {
                    "diag": task.operation(f"blk{bi}_{bj}/diag"),
                    "north": task.operation(f"blk{bi}_{bj}/north"),
                    "west": task.operation(f"blk{bi}_{bj}/west"),
                    "center": task.operation(f"blk{bi}_{bj}/center"),
                }
            first_op = next(iter(entry["ops"].values()))
            entry["interior"] = first_op.location(
                f"za{bi}_{bj}", blk.interior_bytes
            )
            center = entry["ops"]["center"]
            if bi < gh - 1:
                entry["s_edge"] = center.location(
                    f"s{bi}_{bj}", blk.edge_row_bytes
                )
            if bj < gw - 1:
                entry["e_edge"] = center.location(
                    f"e{bi}_{bj}", blk.edge_col_bytes
                )
            if not single_op:
                # Old-value exports: the block's top row / left column are
                # read by the N/W neighbours *before* this block updates
                # them each iteration (Gauss-Seidel reads previous-sweep
                # values southwards/eastwards).
                if bi > 0:
                    entry["n_edge"] = entry["ops"]["north"].location(
                        f"n{bi}_{bj}", blk.edge_row_bytes
                    )
                if bj > 0:
                    entry["w_edge"] = entry["ops"]["west"].location(
                        f"w{bi}_{bj}", blk.edge_col_bytes
                    )
            tasks[bi, bj] = entry

    # Coefficient blocks: task-private machine buffers (not locations).
    for (bi, bj), entry in tasks.items():
        blk = entry["block"]
        entry["coeffs"] = runtime.machine.allocate(
            5 * blk.interior_bytes, f"coef{bi}_{bj}"
        )

    # Handles: every op rotates the interior; border ops read the
    # neighbours' published edges; center publishes own edges.
    for (bi, bj), entry in tasks.items():
        ops = entry["ops"]
        handles: dict = {}
        for name, op in ops.items():
            handles[f"int_{name}"] = op.write_handle(
                entry["interior"], iterative=True
            )
        if not single_op:
            if bi > 0:
                handles["n_in"] = ops["north"].read_handle(
                    tasks[bi - 1, bj]["s_edge"], iterative=True
                )
                if bj > 0:
                    h = ops["diag"].read_handle(
                        tasks[bi - 1, bj]["s_edge"], iterative=True
                    )
                    h.traffic = 8.0
                    handles["d_n_in"] = h
            if bj > 0:
                handles["w_in"] = ops["west"].read_handle(
                    tasks[bi, bj - 1]["e_edge"], iterative=True
                )
                if bi > 0:
                    h = ops["diag"].read_handle(
                        tasks[bi, bj - 1]["e_edge"], iterative=True
                    )
                    h.traffic = 8.0
                    handles["d_w_in"] = h
        if "s_edge" in entry:
            handles["s_out"] = ops["center"].write_handle(
                entry["s_edge"], iterative=True
            )
        if "e_edge" in entry:
            handles["e_out"] = ops["center"].write_handle(
                entry["e_edge"], iterative=True
            )
        if not single_op:
            # Writers of the own old-value exports: the ops that update
            # the top row (diag + north) and left column (diag + west).
            if "n_edge" in entry:
                handles["n_out"] = ops["north"].write_handle(
                    entry["n_edge"], iterative=True
                )
                if bj > 0:
                    handles["d_n_out"] = ops["diag"].write_handle(
                        entry["n_edge"], iterative=True
                    )
            if "w_edge" in entry:
                handles["w_out"] = ops["west"].write_handle(
                    entry["w_edge"], iterative=True
                )
                if bi > 0:
                    handles["d_w_out"] = ops["diag"].write_handle(
                        entry["w_edge"], iterative=True
                    )
            # Old-value readers (init_rank -1: the iteration-0 read must
            # see the initial array, before the neighbour's first write).
            if bi < gh - 1:
                south = tasks[bi + 1, bj]
                h = ops["center"].read_handle(south["n_edge"], iterative=True)
                h.init_rank = -1
                handles["old_s"] = h
                if bj > 0:
                    h = ops["west"].read_handle(south["n_edge"], iterative=True)
                    h.init_rank = -1
                    h.traffic = 8.0
                    handles["old_s_w"] = h
            if bj < gw - 1:
                east = tasks[bi, bj + 1]
                h = ops["center"].read_handle(east["w_edge"], iterative=True)
                h.init_rank = -1
                handles["old_e"] = h
                if bi > 0:
                    h = ops["north"].read_handle(east["w_edge"], iterative=True)
                    h.init_rank = -1
                    h.traffic = 8.0
                    handles["old_e_n"] = h
        entry["handles"] = handles

    # Bodies.
    for (bi, bj), entry in tasks.items():
        blk = entry["block"]
        h = entry["handles"]
        single = single_op

        def border_body(op, *, kind, entry=entry, blk=blk, h=h):
            interior = h[f"int_{kind}"]
            if kind == "diag":
                outs = [x for x in (h.get("d_n_out"), h.get("d_w_out")) if x]
                inputs = [x for x in (h.get("d_n_in"), h.get("d_w_in")) if x]
                cells_fn, n_cells, io_bytes = blk.diag_cells, blk.diag_count(), 16.0
            elif kind == "north":
                outs = [h["n_out"]] if "n_out" in h else []
                inputs = [
                    x for x in (h.get("n_in"), h.get("old_e_n")) if x
                ]
                cells_fn, n_cells, io_bytes = (
                    blk.north_cells, blk.north_count(), blk.edge_row_bytes
                )
            else:
                outs = [h["w_out"]] if "w_out" in h else []
                inputs = [
                    x for x in (h.get("w_in"), h.get("old_s_w")) if x
                ]
                cells_fn, n_cells, io_bytes = (
                    blk.west_cells, blk.west_count(), blk.edge_col_bytes
                )

            # The sweep's ops are the same every iteration: made once.
            cells_touch = Touch(
                entry["interior"].buffer, n_cells * 8 * 2, write=True
            )
            sweep = Compute(FLOPS_PER_CELL * n_cells)
            for _ in range(cfg.iterations):
                yield from interior.acquire()
                # Own old-value exports: writing waits until the N/W
                # neighbours have read last iteration's boundary.
                for hout in outs:
                    yield from hout.acquire()
                for hin in inputs:
                    yield from hin.acquire()
                    yield hin.touch(io_bytes if hin.traffic is None else hin.traffic)
                if n_cells:
                    yield cells_touch
                    yield sweep
                    if cfg.execute_data:
                        _sweep_cells(arrays, cells_fn())
                for hin in reversed(inputs):
                    hin.release()
                for hout in reversed(outs):
                    yield hout.touch(min(io_bytes, hout.location.size))
                    hout.release()
                interior.release()

        def center_body(op, *, entry=entry, blk=blk, h=h, single=single):
            interior = h["int_center"]

            def cells_fn():
                if single:
                    yield from blk.diag_cells()
                    yield from blk.north_cells()
                    yield from blk.west_cells()
                yield from blk.center_cells()

            n_cells = blk.center_count()
            if single:
                n_cells += blk.diag_count() + blk.north_count() + blk.west_count()
            outs = [
                (h[name], nbytes)
                for name, nbytes in (
                    ("s_out", blk.edge_row_bytes),
                    ("e_out", blk.edge_col_bytes),
                )
                if name in h
            ]
            olds = [
                (h["old_s"], blk.edge_row_bytes) if "old_s" in h else None,
                (h["old_e"], blk.edge_col_bytes) if "old_e" in h else None,
            ]
            olds = [x for x in olds if x]
            # Stream the za block plus the five coefficient blocks, then
            # sweep: the same ops every iteration, made once.
            za_touch = Touch(
                entry["interior"].buffer, blk.interior_bytes, write=True
            )
            coeffs_touch = Touch(entry["coeffs"], 5 * blk.interior_bytes)
            sweep = Compute(FLOPS_PER_CELL * n_cells)
            for _ in range(cfg.iterations):
                yield from interior.acquire()
                for hout, _ in outs:
                    yield from hout.acquire()
                # Old-value reads: the S top row / E left column of the
                # previous sweep must still be unmodified while we compute.
                for hold, nbytes in olds:
                    yield from hold.acquire()
                    yield hold.touch(nbytes)
                yield za_touch
                yield coeffs_touch
                yield sweep
                if cfg.execute_data:
                    _sweep_cells(arrays, cells_fn())
                for hold, _ in reversed(olds):
                    hold.release()
                # Publish the bottom row / right column for the wave.
                for hout, nbytes in outs:
                    yield hout.touch(nbytes)
                    hout.release()
                interior.release()

        entry["ops"]["center"].set_body(center_body)
        for kind in ("diag", "north", "west"):
            if kind in entry["ops"]:
                entry["ops"][kind].set_body(
                    lambda op, kind=kind, body=border_body: body(op, kind=kind)
                )

    return {"tasks": tasks, "grid": (gh, gw)}


def run_orwl_lk23(
    topology: Topology,
    cfg: Lk23Config,
    *,
    affinity: bool,
    model: CostModel | None = None,
    seed: int = 0,
    arrays: dict[str, np.ndarray] | None = None,
    core: str = "batched",
) -> RunResult:
    """Build and execute the ORWL LK23 on *topology*."""
    runtime = Runtime(topology, affinity=affinity, model=model, seed=seed,
                      core=core)
    build_orwl_lk23(runtime, cfg, arrays)
    return runtime.run()


# -- OpenMP reference implementation -----------------------------------------------------


def run_openmp_lk23(
    topology: Topology,
    cfg: Lk23Config,
    *,
    binding: str | None,
    model: CostModel | None = None,
    seed: int = 0,
    arrays: dict[str, np.ndarray] | None = None,
    core: str = "batched",
    attach: Callable[[OpenMPRuntime], None] | None = None,
) -> OMPResult:
    """The paper's OpenMP version: ``parallel for`` over row chunks with
    static scheduling, one implicit barrier per iteration.

    All arrays are allocated and first-touched by the master thread (the
    usual OpenMP pattern), homing everything on one NUMA node. In data
    mode the naive chunking reads stale values across chunk boundaries —
    the same semantic drift a real ``#pragma omp parallel for`` port of
    this Gauss-Seidel kernel exhibits.
    """
    if cfg.execute_data and arrays is None:
        raise ReproError("execute_data requires the input arrays")
    omp = OpenMPRuntime(topology, cfg.n_threads, binding=binding,
                        model=model, seed=seed, core=core)
    n = cfg.n
    bytes_all = n * n * 8

    def master(rt: OpenMPRuntime):
        za = rt.allocate(bytes_all, "za")
        coeffs = rt.allocate(5 * bytes_all, "coeffs")
        yield Touch(za, write=True)
        yield Touch(coeffs)

        n_chunks = cfg.n_threads
        rows_per_chunk = (n - 2) / n_chunks
        # A chunk sweeps the same rows every iteration: its ops are made
        # once, before the first region.
        chunks = []
        for idx in range(n_chunks):
            lo = 1 + int(idx * rows_per_chunk)
            hi = 1 + int((idx + 1) * rows_per_chunk)
            rows = max(0, hi - lo)
            cbytes = rows * n * 8
            chunks.append((
                lo, hi, rows,
                Touch(za, cbytes, write=True),
                Touch(coeffs, 5 * cbytes),
                Compute(FLOPS_PER_CELL * rows * (n - 2)),
            ))

        def chunk(idx):
            lo, hi, rows, za_touch, coeffs_touch, sweep = chunks[idx]
            if rows == 0:
                return
            yield za_touch
            yield coeffs_touch
            yield sweep
            if cfg.execute_data:
                _sweep_cells(
                    arrays,
                    ((j, k) for j in range(lo, hi) for k in range(1, n - 1)),
                )

        for _ in range(cfg.iterations):
            yield from rt.parallel_for(n_chunks, chunk)

    if attach is not None:
        attach(omp)
    return omp.run(master)
