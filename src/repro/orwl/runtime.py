"""The ORWL runtime: schedule, spawn, run — with the affinity add-on.

Lifecycle::

    rt = Runtime(smp12e5(), affinity=True)       # or ORWL_AFFINITY=1
    t = rt.task("stage0")
    loc = t.location("out", 1 << 20)
    h = t.write_handle(loc, iterative=True)
    t.set_body(body_fn)                           # body_fn(op) -> generator
    ...
    result = rt.run()                             # schedule + execute

``schedule()`` (implicit in ``run``) freezes the task/location graph,
orders every initial request into its location FIFO (owner first, then
readers by operation id — the deterministic order that makes the iterative
system deadlock-free for DAG-per-iteration applications), and performs the
initial FIFO activations. ``run()`` then spawns one simulated thread per
operation plus one control thread per location, applies the affinity
module when enabled, and executes on the simulated machine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ORWLError, ScheduleError
from repro.orwl.affinity import AffinityModule
from repro.orwl.location import Location
from repro.orwl.task import Operation, Task
from repro.sim.counters import Counters
from repro.sim.machine import SimMachine
from repro.sim.params import CostModel
from repro.sim.process import Compute, Wait
from repro.topology.tree import Topology
from repro.treematch.commmatrix import CommunicationMatrix
from repro.treematch.mapping import Placement

__all__ = ["Runtime", "RunResult", "initial_request_order"]

AFFINITY_ENV = "ORWL_AFFINITY"


def initial_request_order(runtime: "Runtime") -> dict[int, list]:
    """Per-location handle order of the initial FIFOs, ``loc_id → [Handle]``.

    This is the coordination step Listing 1 performs in
    ``orwl_schedule()``: requests sort by init rank (writers 0, readers 1
    unless overridden — see ``Handle.init_rank``), then operation id, then
    declaration order. Extension-attached handles (orwl_split/orwl_fifo)
    participate exactly like declared ones. ``schedule()`` consumes this
    order to seed the FIFOs; the static analyzers consume it to reason
    about grant order without running anything — sharing the helper keeps
    the two views identical by construction.
    """
    per_location: dict[int, list] = {loc.loc_id: [] for loc in runtime.locations}
    for op in runtime.operations:
        for seq, handle in enumerate(op.all_handles):
            rank = (
                handle.init_rank
                if handle.init_rank is not None
                else (0 if handle.mode == "w" else 1)
            )
            key = (rank, op.op_id, seq)
            per_location[handle.location.loc_id].append((key, handle))
    return {
        lid: [handle for _, handle in sorted(entries, key=lambda kv: kv[0])]
        for lid, entries in per_location.items()
    }


@dataclass
class RunResult:
    """Everything a benchmark needs from one ORWL execution."""

    seconds: float
    counters: Counters
    compute_counters: Counters
    control_counters: Counters
    placement: Placement | None
    comm: CommunicationMatrix | None
    machine: SimMachine

    @property
    def gflops(self) -> float:
        """Application GFLOP/s (compute threads only)."""
        if self.seconds <= 0:
            return 0.0
        return self.compute_counters.flops / self.seconds / 1e9

    def report(self) -> str:
        """Human-readable run summary (time, rate, counters, placement)."""
        c = self.counters
        lines = [
            f"elapsed        {self.seconds:.6f} s "
            f"({self.machine.elapsed_cycles:,.0f} cycles)",
            f"compute rate   {self.gflops:.2f} GFLOP/s",
            f"utilization    {self.machine.utilization():.1%}",
            f"L3 misses      {c.l3_misses:,.0f}",
            f"stalled cycles {c.stalled_cycles:,.0f}",
            f"ctx switches   {c.context_switches:,}",
            f"migrations     {c.cpu_migrations:,}",
        ]
        if self.placement is not None:
            lines.append(
                f"placement      {self.placement.granularity}-granular, "
                f"control={self.placement.control_mode}, "
                f"oversub x{self.placement.oversub_factor}"
            )
        else:
            lines.append("placement      none (OS scheduling)")
        return "\n".join(lines)


class Runtime:
    """One ORWL program instance bound to a (simulated) machine."""

    def __init__(
        self,
        topology: Topology,
        *,
        affinity: bool | None = None,
        model: CostModel | None = None,
        os_policy: str | None = None,
        seed: int = 0,
        core: str = "batched",
        observer=None,
    ) -> None:
        if affinity is None:
            affinity = os.environ.get(AFFINITY_ENV, "0") == "1"
        self.affinity_enabled = bool(affinity)
        self.topology = topology
        self.machine = SimMachine(
            topology, model, os_policy=os_policy, seed=seed, core=core,
            observer=observer,
        )
        self.tasks: list[Task] = []
        self.operations: list[Operation] = []
        self.locations: list[Location] = []
        self.affinity = AffinityModule(self)
        self._scheduled = False
        self._running = False
        self._shutdown = False
        self._ops_remaining = 0
        self._result: RunResult | None = None

    # -- program construction ---------------------------------------------------

    def task(self, name: str = "") -> Task:
        self._check_not_scheduled("create a task")
        t = Task(len(self.tasks), self, name or f"task{len(self.tasks)}")
        self.tasks.append(t)
        return t

    def _new_operation(self, task: Task, name: str, body) -> Operation:
        op = Operation(len(self.operations), task, name, body)
        self.operations.append(op)
        return op

    def _new_location(self, owner: Operation, name: str, size: int) -> Location:
        self._check_not_scheduled("create a location")
        loc = Location(
            len(self.locations), name, owner, 0,
            work=self.machine.event(f"work:{name}"),
        )
        if size:
            loc.scale(size)
        self.locations.append(loc)
        owner.locations.append(loc)
        return loc

    def _check_not_scheduled(self, what: str) -> None:
        if self._scheduled:
            raise ScheduleError(f"cannot {what} after schedule()")

    def validate(self) -> list:
        """Static wiring checks; see :mod:`repro.orwl.lint`."""
        from repro.orwl.lint import validate_program

        return validate_program(self)

    # -- schedule -------------------------------------------------------------------

    def schedule(self) -> None:
        """Freeze the graph, order initial requests, activate FIFO heads."""
        if self._scheduled:
            raise ScheduleError("schedule() may only be called once")
        if not self.operations:
            raise ScheduleError("no tasks/operations declared")
        for op in self.operations:
            if op.body is None:
                raise ScheduleError(f"operation {op.name!r} has no body")
        for loc in self.locations:
            if loc.size <= 0:
                raise ScheduleError(
                    f"location {loc.name!r} was never scaled to a size"
                )

        # Deterministic initial request order per location — see
        # :func:`initial_request_order` (shared with the static analyzers).
        per_location = initial_request_order(self)
        for loc in self.locations:
            for handle in per_location[loc.loc_id]:
                loc.fifo.insert(handle._new_request())
            loc.fifo.advance()

        # Materialize buffers (home set lazily by first touch).
        for loc in self.locations:
            loc.buffer = self.machine.allocate(loc.size, loc.name)

        self._scheduled = True

    # -- control threads ---------------------------------------------------------------

    def _control_body(self, loc: Location):
        # Both ops are made once: the machine only reads them.
        wait = Wait(loc.work)  # hotlint: ok(alloc) — once, before the loop
        control = Compute(  # hotlint: ok(alloc) — once, before the loop
            self.machine.model.control_cycles
        )
        fifo = loc.fifo
        while True:
            yield wait
            if self._shutdown:
                return
            yield control
            fifo.advance()

    def _op_body(self, op: Operation):
        gen = op.body(op)
        if gen is not None:
            yield from gen
        self._ops_remaining -= 1
        if self._ops_remaining == 0:
            self._shutdown = True
            for loc in self.locations:
                loc.work.signal()

    # -- the affinity add-on API (paper Sec. IV-B) ------------------------------------------

    def dependency_get(self) -> CommunicationMatrix:
        """``orwl_dependency_get``: (re)compute the communication matrix."""
        return self.affinity.dependency_get()

    def affinity_compute(self) -> Placement:
        """``orwl_affinity_compute``: run Algorithm 1 on the current state."""
        return self.affinity.affinity_compute()

    def affinity_set(self) -> None:
        """``orwl_affinity_set``: bind every thread per the computed mapping."""
        self.affinity.affinity_set()

    # -- run ----------------------------------------------------------------------------------

    def prepare_run(self) -> None:
        """Everything :meth:`run` does before starting the simulator:
        schedule, spawn compute/control threads, and apply the initial
        affinity pipeline. Split out so windowed drivers (the adaptive
        controller of :mod:`repro.affinity`) can own the run loop and
        finish via :meth:`_build_result`.
        """
        if self._running:
            raise ORWLError("run() may only be called once")
        self._running = True
        if not self._scheduled:
            self.schedule()

        for op in self.operations:
            self.machine.add_thread(op.name, self._op_body(op), kind="compute")
        for loc in self.locations:
            self.machine.add_thread(
                f"ctl:{loc.name}", self._control_body(loc), kind="control"
            )
        self._ops_remaining = len(self.operations)

        if self.affinity_enabled:
            self.affinity.dependency_get()
            self.affinity.affinity_compute()
            self.affinity.affinity_set()

    def _build_result(self, seconds: float) -> RunResult:
        """Package the post-run state; the tail half of :meth:`run`."""
        self._result = RunResult(
            seconds=seconds,
            counters=self.machine.total_counters(),
            compute_counters=self.machine.counters_by_kind("compute"),
            control_counters=self.machine.counters_by_kind("control"),
            placement=self.affinity.placement,
            comm=self.affinity.comm,
            machine=self.machine,
        )
        return self._result

    def run(self, *, max_events: int | None = None) -> RunResult:
        """Execute the program; returns a :class:`RunResult`."""
        self.prepare_run()
        return self._build_result(self.machine.run(max_events=max_events))
