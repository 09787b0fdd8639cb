"""Block-cyclic matrix multiplication — the compute-bound benchmark (Sec. V-B).

``C = A · B`` with row-aligned matrices. Each ORWL task owns a block of
rows of C (and the matching rows of A) and a *location* holding one
column block of B; the B blocks circulate around the task ring, one hop
per phase, so after ``p`` phases every task has seen all of B:

* phase ``k``: task ``i`` holds column block ``(i - k) mod p`` and runs a
  DGEMM on it (modeled at :data:`~repro.openmp.mkl.DGEMM_EFFICIENCY`);
* between phases the task reads its predecessor's slot into its own —
  the only communication, and exactly what the affinity module sees.

The MKL/OpenMP comparison lives in :func:`repro.openmp.mkl.threaded_dgemm`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.openmp.mkl import DGEMM_EFFICIENCY
from repro.orwl.runtime import Runtime, RunResult
from repro.sim.params import CostModel
from repro.sim.process import Compute, Touch
from repro.topology.tree import Topology

__all__ = [
    "MatmulConfig",
    "build_orwl_matmul",
    "run_orwl_matmul",
    "matmul_flops",
]


@dataclass(frozen=True)
class MatmulConfig:
    """Problem parameters. ``n_tasks`` = ring size = thread count."""

    n: int = 16384
    n_tasks: int = 8
    execute_data: bool = False

    def __post_init__(self) -> None:
        if self.n < 1 or self.n_tasks < 1:
            raise ReproError("n and n_tasks must be >= 1")
        if self.n_tasks > self.n:
            raise ReproError("more tasks than matrix rows")

    def bounds(self) -> list[tuple[int, int]]:
        """Near-equal (start, stop) row/column block boundaries."""
        p = self.n_tasks
        return [
            (t * self.n // p, (t + 1) * self.n // p) for t in range(p)
        ]


def matmul_flops(n: int) -> float:
    """Total flops of an n×n DGEMM."""
    return 2.0 * float(n) ** 3


def build_orwl_matmul(
    runtime: Runtime,
    cfg: MatmulConfig,
    data: dict[str, np.ndarray] | None = None,
) -> None:
    """Declare the ring of matmul tasks on *runtime*.

    With *data* = ``{"A": ..., "B": ..., "C": ...}`` (small sizes), tasks
    perform the real numpy products into ``C``.
    """
    if cfg.execute_data and data is None:
        raise ReproError("execute_data requires data arrays")
    p = cfg.n_tasks
    bounds = cfg.bounds()
    widths = [hi - lo for lo, hi in bounds]
    max_width = max(widths)
    slot_bytes = cfg.n * max_width * 8  # holds any column block of B

    tasks = [runtime.task(f"mm{i}") for i in range(p)]
    slots = [t.location(f"bslot{i}", slot_bytes) for i, t in enumerate(tasks)]
    a_bufs = [
        runtime.machine.allocate(max(1, widths[i] * cfg.n * 8), f"A{i}")
        for i in range(p)
    ]
    c_bufs = [
        runtime.machine.allocate(max(1, widths[i] * cfg.n * 8), f"C{i}")
        for i in range(p)
    ]
    if cfg.execute_data:
        for loc in slots:
            loc.data = {"j": -1, "block": None}

    for i, task in enumerate(tasks):
        own = task.write_handle(slots[i], iterative=True)
        prev = task.read_handle(slots[(i - 1) % p], iterative=True) if p > 1 else None

        def body(op, *, i=i, own=own, prev=prev):
            r_lo, r_hi = bounds[i]
            nb_i = r_hi - r_lo
            a_touch = Touch(a_bufs[i], nb_i * cfg.n * 8)
            # Near-equal blocks have at most two widths: one DGEMM and one
            # C-block touch per width, made before the phases that use them.
            by_width = {
                w: (
                    Compute(2.0 * nb_i * cfg.n * w, efficiency=DGEMM_EFFICIENCY),
                    Touch(c_bufs[i], nb_i * w * 8, write=True),
                )
                for w in set(widths)
            }
            carried: dict | None = None
            for k in range(p):
                j = (i - k) % p  # column block currently in the slot
                c_lo, c_hi = bounds[j]
                w_j = c_hi - c_lo
                yield from own.acquire()
                if cfg.execute_data:
                    slot = own.map()
                    if k == 0:
                        slot["j"] = i
                        slot["block"] = data["B"][:, c_lo:c_hi].copy()
                    else:
                        slot.update(carried)
                    assert slot["j"] == j, "ring rotation out of sync"
                yield own.touch(cfg.n * w_j * 8)
                yield a_touch
                dgemm, c_touch = by_width[w_j]
                yield dgemm
                yield c_touch
                if cfg.execute_data:
                    data["C"][r_lo:r_hi, c_lo:c_hi] = (
                        data["A"][r_lo:r_hi, :] @ own.map()["block"]
                    )
                own.release()
                if prev is not None and k < p - 1:
                    yield from prev.acquire()
                    if cfg.execute_data:
                        got = prev.map()
                        carried = {"j": got["j"], "block": got["block"].copy()}
                    yield prev.touch(cfg.n * widths[(i - 1 - k) % p] * 8)
                    prev.release()

        task.set_body(body)


def run_orwl_matmul(
    topology: Topology,
    cfg: MatmulConfig,
    *,
    affinity: bool,
    model: CostModel | None = None,
    seed: int = 0,
    data: dict[str, np.ndarray] | None = None,
    core: str = "batched",
) -> RunResult:
    """Build and execute the block-cyclic matmul; see :class:`RunResult`.

    ``result.gflops`` is the figure-of-merit of Fig. 5.
    """
    runtime = Runtime(topology, affinity=affinity, model=model, seed=seed,
                      core=core)
    build_orwl_matmul(runtime, cfg, data)
    return runtime.run()
