"""ORWL handles: an operation's read/write connection to a location.

``iterative=True`` gives ``orwl_handle2`` semantics: every release
re-inserts a request for the next iteration before the lock is handed on,
so each participant keeps its slot in the access rotation.

The blocking calls are generators (the simulated-thread protocol):

    yield from handle.acquire()
    ... use handle.map() / yield handle.touch(...) ...
    handle.release()
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import HandleStateError
from repro.orwl.location import Location, Request
from repro.sim.process import Touch, Wait

if TYPE_CHECKING:  # pragma: no cover
    from repro.orwl.task import Operation

__all__ = ["Handle"]

#: Byte counts whose Touch op a handle keeps (see :meth:`Handle.touch`).
_TOUCH_SIZES_KEPT = 8


class Handle:
    """Connects one operation to one location, read or write."""

    def __init__(
        self,
        op: "Operation",
        location: Location,
        mode: str,
        *,
        iterative: bool = False,
    ) -> None:
        if mode not in ("r", "w"):
            raise HandleStateError(f"handle mode must be 'r' or 'w', got {mode!r}")
        self.op = op
        self.location = location
        self.mode = mode
        self.iterative = iterative
        #: Bytes this handle moves per iteration for the communication
        #: matrix; None = the whole location payload. Split readers
        #: (orwl_split) set a fraction.
        self.traffic: float | None = None
        #: Initial-FIFO ordering class at schedule(): writers default to
        #: 0, readers to 1 (producers go first). Old-value consumers in
        #: stencil codes set a negative rank so their iteration-0 read
        #: precedes the first write (they must see the initial state).
        self.init_rank: int | None = None
        self.held = False
        self.current_request: Request | None = None
        #: The grant event, made once and reused by every iteration's
        #: request. Grants and acquires strictly alternate — release k is
        #: the only place request k+1 is inserted, and k+1 cannot
        #: activate before k is released — so its count never exceeds 1.
        self.event = op.task.runtime.machine.event(
            f"{location.name}:{op.name}:{mode}"
        )
        self._wait = Wait(self.event)
        #: This handle's Touch ops by byte count, made on first use.
        self._touches: dict[float | None, Touch] = {}

    # -- wiring (runtime calls these) ---------------------------------------

    def _new_request(self) -> Request:
        # One per hand-off: the FIFO holds and activates each request.
        req = Request(self, self.mode)  # hotlint: ok(alloc) — the FIFO entry
        self.current_request = req
        return req

    # -- the blocking protocol -------------------------------------------------

    def acquire(self):
        """Generator: block until this handle's request becomes active."""
        if self.current_request is None:
            raise HandleStateError(
                f"{self}: no pending request — was the runtime scheduled, "
                "and is the handle iterative if re-acquired?"
            )
        if self.held:
            raise HandleStateError(f"{self}: acquire while already held")
        yield self._wait
        self.held = True

    def release(self) -> None:
        """Release the critical section (synchronous).

        For iterative handles the next-iteration request is inserted
        *before* the release is made visible — the ORWL_SECTION2 rule.
        The actual FIFO advance is performed by the location's control
        thread, woken through the location's ``work`` event.
        """
        if not self.held:
            raise HandleStateError(f"{self}: release without acquire")
        req = self.current_request
        assert req is not None
        if self.iterative:
            nxt = self._new_request()
            self.location.fifo.insert(nxt)
        else:
            self.current_request = None
        self.location.fifo.release(req)
        self.held = False
        self.location.work.signal()

    # -- data access -----------------------------------------------------------

    def touch(self, nbytes: float | None = None) -> Touch:
        """A Touch op for the location's buffer (yield it while held).

        The op is shared: every call with an equal byte count of the same
        type returns the one op made for it, which is safe because ops
        are immutable. The first ``_TOUCH_SIZES_KEPT`` counts are kept;
        a handle that touches more sizes gets a new op for the others.
        """
        if not self.held:
            raise HandleStateError(f"{self}: touch while not held")
        touches = self._touches
        op = touches.get(nbytes)
        # 4096 and 4096.0 are one dict key, but touch monitors see the
        # op's own nbytes: an op is reused only for the caller's type.
        if op is not None and op.nbytes.__class__ is nbytes.__class__:
            return op
        assert self.location.buffer is not None
        op = Touch(  # hotlint: ok(alloc) — first use of this byte count
            self.location.buffer, nbytes, write=(self.mode == "w")
        )
        if len(touches) < _TOUCH_SIZES_KEPT:
            touches[nbytes] = op
        return op

    def map(self) -> Any:
        """The location's real data (data-execution mode), guarded."""
        if not self.held:
            raise HandleStateError(f"{self}: map while not held")
        return self.location.data

    def store(self, value: Any) -> None:
        """Replace the location's data (write handles only, while held)."""
        if not self.held:
            raise HandleStateError(f"{self}: store while not held")
        if self.mode != "w":
            raise HandleStateError(f"{self}: store through a read handle")
        self.location.data = value

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Handle {self.mode}{'2' if self.iterative else ''} "
            f"op={self.op.name!r} loc={self.location.name!r}>"
        )
