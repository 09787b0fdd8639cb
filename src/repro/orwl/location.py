"""ORWL locations and their request FIFOs.

A location abstracts a shared resource. Access is mediated by a FIFO of
requests: the head of the queue is *active*; a write request is active
alone (exclusive), while a maximal run of adjacent read requests is active
together (shared). Releasing the last active request lets the next group
advance. Iterative handles re-append their next-iteration request *before*
the release takes effect, which reserves their slot for the next round —
the property that makes ORWL iterations fair and deadlock-free.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import HandleStateError, ORWLError

if TYPE_CHECKING:  # pragma: no cover
    from repro.orwl.handle import Handle
    from repro.sim.memory import Buffer
    from repro.sim.process import SimEvent

__all__ = ["Request", "LocationFIFO", "Location"]


@dataclass(slots=True, eq=False)
class Request:
    """One pending access to a location (one per hand-off)."""

    handle: "Handle"  # granted through ``handle.event``
    mode: str  # "r" | "w"
    active: bool = False
    released: bool = False

    def __repr__(self) -> str:  # pragma: no cover
        state = "active" if self.active else ("released" if self.released else "queued")
        return f"<Request {self.mode} op={self.handle.op.name!r} {state}>"


class LocationFIFO:
    """The ordered request queue of one location."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.queue: deque[Request] = deque()
        self.active: list[Request] = []

    def insert(self, request: Request) -> None:
        """Append a request at the tail (FIFO order is access order)."""
        self.queue.append(request)

    def release(self, request: Request) -> None:
        """Mark an active request released; caller must then advance()."""
        if not request.active:
            raise HandleStateError(
                f"release of non-active request on {self.name!r}"
            )
        request.active = False
        request.released = True
        self.active.remove(request)

    def advance(self) -> list[Request]:
        """Activate the next head group; returns newly activated requests.

        No-op while some request is still active (writers are exclusive;
        a read group must fully release before a writer can go).
        """
        if self.active or not self.queue:
            return []
        head = self.queue.popleft()
        head.active = True
        activated = [head]
        if head.mode == "r":
            # Coalesce the maximal run of adjacent readers.
            while self.queue and self.queue[0].mode == "r":
                nxt = self.queue.popleft()
                nxt.active = True
                activated.append(nxt)
        self.active.extend(activated)
        for req in activated:
            req.handle.event.signal()
        return activated

    @property
    def depth(self) -> int:
        return len(self.queue)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FIFO {self.name!r} active={len(self.active)} queued={len(self.queue)}>"
        )


@dataclass(eq=False)
class Location:
    """A shared resource: name, size, owning operation, FIFO, buffer.

    ``size`` is set at creation or later via :meth:`scale` (the
    ``orwl_scale`` idiom). The simulated buffer is allocated by the
    runtime at run start; ``data`` may carry a real numpy array in
    data-execution mode.
    """

    loc_id: int
    name: str
    owner: Any  # Operation; untyped to avoid a circular import
    size: int = 0
    fifo: LocationFIFO = field(default_factory=LocationFIFO)
    buffer: "Buffer | None" = None
    data: Any = None
    meta: dict = field(default_factory=dict)
    #: Wakes the location's control thread: ``Handle.release`` signals
    #: it, the control thread waits on it. The runtime sets it.
    work: "SimEvent | None" = None

    def __post_init__(self) -> None:
        self.fifo.name = self.name

    def scale(self, size: int) -> None:
        """Set the payload size in bytes (``orwl_scale``)."""
        if size <= 0:
            raise ORWLError(f"location size must be positive, got {size}")
        if self.buffer is not None:
            raise ORWLError(f"location {self.name!r} already materialized")
        self.size = int(size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Location #{self.loc_id} {self.name!r} {self.size}B>"
