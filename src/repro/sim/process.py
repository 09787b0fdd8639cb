"""Simulated-thread protocol: the ops a thread generator may yield.

A simulated thread is a Python generator (or any iterator of ops). Each
``yield`` hands the machine an *operation*; the machine prices it against
the cost model, advances virtual time, and resumes the generator with
``next()``: no op returns a value. This cooperative protocol is how
application code "runs" on the simulated machine without real OS threads
— the GIL substitution described in DESIGN.md.

Ops
---
``Compute(flops)``           burn CPU.
``Touch(buffer, nbytes, write=)``  access memory through the cache model.
``Wait(event)``              block until the event is signalled.
``YieldCPU()``               give the PU up voluntarily (re-queue).

The machine dispatches on the exact op class: an instance of any other
class, a subclass of an op included, fails the run with an ``unknown op``
:class:`~repro.errors.SimulationError`.

Synchronisation uses :class:`SimEvent` — a counting event: ``signal()``
increments, a waiting thread consumes one count per wait.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.counters import Counters
from repro.util.bitmap import Bitmap

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.memory import Buffer

__all__ = [
    "Compute",
    "Touch",
    "Wait",
    "YieldCPU",
    "SimEvent",
    "SimThread",
    "ThreadGen",
]

ThreadGen = Generator["Op", None, None]

_INF = float("inf")

# Ops are slotted, identity-compared plain classes rather than
# dataclasses: applications construct one per simulated operation —
# hundreds of millions per paper-scale sweep — and the handwritten
# __init__ skips the generated-init + __post_init__ double call (a
# frozen dataclass would further pay two object.__setattr__ calls per
# field). Treat them as immutable all the same; the machine only reads
# them. Validation stays in __init__ so a bad op raises at construction
# time, where the application's traceback points at the culprit.


class Compute:
    """Burn ``flops`` floating-point operations on the current PU.

    ``efficiency`` scales throughput relative to the machine's base
    ``cycles_per_flop`` (e.g. a DGEMM inner kernel runs at >1).
    """

    __slots__ = ("flops", "efficiency")

    def __init__(self, flops: float, efficiency: float = 1.0) -> None:
        # Chained so NaN fails as well as out-of-range values.
        if not (0 <= flops < _INF and 0 < efficiency < _INF):
            raise SimulationError(
                "flops must be finite and >= 0, efficiency finite and > 0 "
                f"(got flops={flops!r}, efficiency={efficiency!r})"
            )
        self.flops = flops
        self.efficiency = efficiency

    def __repr__(self) -> str:
        return f"Compute(flops={self.flops!r}, efficiency={self.efficiency!r})"


class Touch:
    """Stream ``nbytes`` of ``buffer`` through the cache hierarchy."""

    __slots__ = ("buffer", "nbytes", "write")

    def __init__(
        self,
        buffer: "Buffer",
        nbytes: float | None = None,  # None = whole buffer
        write: bool = False,
    ) -> None:
        # NaN is the one value unequal to itself. An infinite size is
        # fine: the machine clamps it to the buffer size.
        if nbytes != nbytes:
            raise SimulationError(f"Touch nbytes must not be NaN (got {nbytes!r})")
        self.buffer = buffer
        self.nbytes = nbytes
        self.write = write

    def __repr__(self) -> str:
        return (
            f"Touch(buffer={self.buffer!r}, nbytes={self.nbytes!r}, "
            f"write={self.write!r})"
        )


class Wait:
    """Block until ``event`` has a pending count."""

    __slots__ = ("event",)

    def __init__(self, event: "SimEvent") -> None:
        self.event = event

    def __repr__(self) -> str:
        return f"Wait(event={self.event!r})"


class YieldCPU:
    """Voluntarily release the PU (cooperative yield)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "YieldCPU()"


Op = Compute | Touch | Wait | YieldCPU


class SimEvent:
    """A counting event: each :meth:`signal` releases one waiter.

    Events created through :meth:`repro.sim.machine.SimMachine.event`
    carry a notify hook: a ``signal()`` with waiters, from inside a
    running thread or between windows, wakes them through an event at
    the current time on the machine's core (never reentrantly).
    """

    __slots__ = ("name", "count", "waiters", "_notify")

    def __init__(self, name: str = "", count: int = 0, notify=None) -> None:
        if count < 0:
            raise SimulationError("initial count must be >= 0")
        self.name = name
        self.count = count
        self.waiters: list[SimThread] = []
        self._notify = notify

    def signal(self, n: int = 1) -> None:
        if n <= 0:
            raise SimulationError("signal count must be positive")
        self.count += n
        if self._notify is not None and self.waiters:
            self._notify(self)

    def try_consume(self) -> bool:
        if self.count > 0:
            self.count -= 1
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SimEvent {self.name!r} count={self.count} waiters={len(self.waiters)}>"


@dataclass(slots=True, eq=False)
class SimThread:
    """Machine-side record of one simulated thread."""

    tid: int
    name: str
    gen: ThreadGen
    kind: str = "compute"  # "compute" | "control"
    cpuset: Bitmap | None = None  # None = unbound (OS decides)
    state: str = "new"  # new | ready | running | blocked | done
    pu: int | None = None  # PU currently (or last) hosting the thread
    last_pu: int | None = None
    counters: Counters = field(default_factory=Counters)
    slices_run: int = 0
    slice_used: float = 0.0
    pending_busy: float = 0.0
    #: Length of the busy chunk currently in flight. The batched core's
    #: events carry no payload beyond the thread, so the chunk lives
    #: here; the object path passes it through the event closure.
    cur_chunk: float = 0.0
    needs_rebalance: bool = False
    waiting_on: SimEvent | None = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SimThread {self.tid} {self.name!r} {self.state} pu={self.pu}>"
