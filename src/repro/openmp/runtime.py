"""The fork-join runtime: a persistent team, parallel_for, barriers.

The application is a *master body* — a generator taking the runtime —
that interleaves serial sections (allocations, initialization: all
first-touched on the master's node, the classic OpenMP NUMA trap) with
``yield from omp.parallel_for(n_items, body_fn)`` regions. Workers are
persistent (the usual OpenMP pool); each region statically chunks the
iteration space, the master executes its own share, and an implicit
barrier ends the region.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

from repro.errors import OpenMPError
from repro.openmp.affinity import omp_binding
from repro.sim.counters import Counters
from repro.sim.machine import SimMachine
from repro.sim.memory import Buffer
from repro.sim.params import CostModel
from repro.sim.process import Wait
from repro.topology.tree import Topology
from repro.util.bitmap import Bitmap

__all__ = ["OpenMPRuntime", "OMPResult"]

ChunkBody = Callable[[int], Iterator]


@dataclass
class OMPResult:
    """Outcome of one OpenMP-model execution."""

    seconds: float
    counters: Counters
    n_threads: int
    binding: str | None
    machine: SimMachine

    @property
    def gflops(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.counters.flops / self.seconds / 1e9


class OpenMPRuntime:
    """A fork-join team of ``n_threads`` simulated threads."""

    def __init__(
        self,
        topology: Topology,
        n_threads: int,
        *,
        binding: str | None = None,
        comm=None,
        model: CostModel | None = None,
        os_policy: str | None = None,
        seed: int = 0,
        core: str = "batched",
        observer=None,
    ) -> None:
        """*binding* accepts the standard knobs of
        :func:`repro.openmp.affinity.omp_binding` plus ``"treematch"``,
        which runs the paper's Algorithm 1 on a caller-supplied
        :class:`~repro.treematch.commmatrix.CommunicationMatrix` over the
        team threads — the generalization the paper's conclusion claims
        ("can be integrated in other runtime systems as soon as the
        programming model provides the necessary abstraction").
        """
        if n_threads < 1:
            raise OpenMPError(f"n_threads must be >= 1, got {n_threads}")
        self.topology = topology
        self.n_threads = n_threads
        self.binding = binding
        self.machine = SimMachine(
            topology, model, os_policy=os_policy, seed=seed, core=core,
            observer=observer,
        )
        if binding == "treematch":
            if comm is None:
                raise OpenMPError(
                    "binding='treematch' needs a communication matrix "
                    "over the team threads (comm=...)"
                )
            if comm.order != n_threads:
                raise OpenMPError(
                    f"comm matrix order {comm.order} != team size {n_threads}"
                )
            from repro.treematch.mapping import treematch_map

            placement = treematch_map(topology, comm)
            self._binding_map = dict(placement.thread_to_pu)
            self.placement = placement
        else:
            self._binding_map = omp_binding(topology, n_threads, binding)
            self.placement = None
        self._go = [self.machine.event(f"omp:go{i}") for i in range(n_threads)]
        self._done = self.machine.event("omp:done")
        # The waits on those events, made once: every region reuses them.
        self._go_waits = [Wait(go) for go in self._go]
        self._done_wait = Wait(self._done)
        self._work: list[tuple[ChunkBody, range] | None] = [None] * n_threads
        self._shutdown = False
        self._ran = False
        #: Region observers, called in virtual time as
        #: ``cb("fork", region_index, n_items)`` when a ``parallel_for``
        #: deals work to the team and ``cb("join", region_index,
        #: n_items)`` when its implicit barrier completes. Empty by
        #: default — the master body pays nothing unless a cross-check
        #: (see :mod:`repro.analyze.openmp`) registers a callback.
        self.on_region: list[Callable[[str, int, int], None]] = []
        self._region_index = 0

    # -- app-facing API ---------------------------------------------------------

    def allocate(self, size: int, label: str = "", *, data=None) -> Buffer:
        """Allocate a shared buffer (first-touch homing applies)."""
        return self.machine.allocate(size, label, data=data)

    def parallel_for(self, n_items: int, body: ChunkBody, *, schedule: str = "static"):
        """Generator: a ``#pragma omp parallel for`` region.

        *body(item)* is a generator run once per iteration index. Static
        scheduling deals contiguous item ranges to the team; the region
        ends with an implicit barrier. Must be yielded from the master
        body (or a nested generator of it).
        """
        if schedule != "static":
            raise OpenMPError(f"only static scheduling is modeled, got {schedule!r}")
        if n_items < 0:
            raise OpenMPError("n_items must be >= 0")
        region = self._region_index
        self._region_index = region + 1
        for cb in self.on_region:
            cb("fork", region, n_items)
        shares = _static_chunks(n_items, self.n_threads)
        for wid in range(1, self.n_threads):
            self._work[wid] = (body, shares[wid])
            self._go[wid].signal()
        # Master executes its own share inline.
        for item in shares[0]:
            yield from body(item)
        # Implicit barrier: one done per worker.
        done = self._done_wait
        for _ in range(1, self.n_threads):
            yield done
        for cb in self.on_region:
            cb("join", region, n_items)

    # -- execution -----------------------------------------------------------------

    def prepare_run(
        self, master_body: Callable[["OpenMPRuntime"], Iterator]
    ) -> list:
        """Add and bind the team's threads without starting the simulator.

        The head half of :meth:`run`, split out so windowed drivers (the
        adaptive controller of :mod:`repro.affinity`) can own the run
        loop and finish via :meth:`_build_result`. Returns the team's
        :class:`SimThread` objects, master first.
        """
        if self._ran:
            raise OpenMPError("run() may only be called once")
        self._ran = True

        def master():
            gen = master_body(self)
            if gen is not None:
                yield from gen
            self._shutdown = True
            for wid in range(1, self.n_threads):
                self._go[wid].signal()

        threads = [self.machine.add_thread("omp:master", master())]
        for wid in range(1, self.n_threads):
            threads.append(
                self.machine.add_thread(f"omp:w{wid}", self._worker(wid))
            )
        if self._binding_map is not None:
            for wid, pu in self._binding_map.items():
                self.machine.bind_thread(threads[wid], Bitmap.single(pu))
        return threads

    def _build_result(self, seconds: float) -> OMPResult:
        """Package the post-run state; the tail half of :meth:`run`."""
        return OMPResult(
            seconds=seconds,
            counters=self.machine.total_counters(),
            n_threads=self.n_threads,
            binding=self.binding,
            machine=self.machine,
        )

    def run(self, master_body: Callable[["OpenMPRuntime"], Iterator]) -> OMPResult:
        """Start the team, run *master_body(self)* to completion."""
        self.prepare_run(master_body)
        seconds = self.machine.run()
        return self._build_result(seconds)

    def _worker(self, wid: int):
        go = self._go_waits[wid]
        while True:
            yield go
            if self._shutdown:
                return
            work = self._work[wid]
            if work is None:
                raise OpenMPError(f"worker {wid} woken without work")
            body, items = work
            self._work[wid] = None
            for item in items:
                yield from body(item)
            self._done.signal()


def _static_chunks(n_items: int, n_threads: int) -> list[range]:
    """Contiguous near-equal ranges, first threads get the remainder."""
    base, extra = divmod(n_items, n_threads)
    shares: list[range] = []
    start = 0
    for t in range(n_threads):
        size = base + (1 if t < extra else 0)
        shares.append(range(start, start + size))
        start += size
    return shares
