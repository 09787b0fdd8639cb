"""The discrete-event core: a time-ordered callback queue.

Deliberately minimal — all machine semantics (PUs, scheduling, caches)
live above it in :mod:`repro.sim.machine`. Events at equal times fire in
scheduling order (a monotonically increasing sequence number breaks ties),
which keeps every simulation deterministic.

:class:`Engine` is a heap of ``(when, seq, callback)`` closures, drained
by the machine's object path. The batched core shares only its clock and
event count: it keeps its own calendar of ``[kind, payload]`` pairs,
where append order within a timestamp is the same scheduling order, and
refuses to run while a callback sits on this heap. The ``EV_*`` kind
codes below are its event kinds.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.errors import SimulationError

__all__ = [
    "Engine",
    "EV_STEP",
    "EV_BUSY",
    "EV_DRAIN",
]

_INF = float("inf")

#: Event kinds of the batched core. The payload is a SimThread (STEP:
#: resume the generator; BUSY: its in-flight busy chunk ended) or a
#: SimEvent (DRAIN: release waiters).
EV_STEP = 0
EV_BUSY = 1
EV_DRAIN = 2


class Engine:
    """A deterministic event queue over a virtual clock (in cycles)."""

    __slots__ = ("now", "_heap", "_seq", "_events_processed")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._events_processed = 0

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run *fn* at ``now + delay`` (finite; may be 0, never negative)."""
        # A chained comparison so a NaN delay fails too.
        if not 0 <= delay < _INF:
            raise SimulationError(f"negative or non-finite delay {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn))

    @property
    def pending(self) -> int:
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def run(self, *, max_cycles: float = _INF, max_events: int | None = None) -> None:
        """Drain the queue up to time *max_cycles*, optionally under an
        event budget."""
        heap = self._heap
        pop = heapq.heappop
        budget = None
        if max_events is not None:
            budget = self._events_processed + max_events
        while heap:
            if heap[0][0] > max_cycles:
                break
            if budget is not None and self._events_processed >= budget:
                raise SimulationError(
                    f"event budget {max_events} exhausted at t={self.now:.3g} "
                    "— runaway simulation?"
                )
            when, _, fn = pop(heap)
            if when < self.now:
                raise SimulationError("event queue went backwards in time")
            self.now = when
            self._events_processed += 1
            fn()
