"""The discrete-event core: a time-ordered callback queue.

Deliberately minimal — all machine semantics (PUs, scheduling, caches)
live above it in :mod:`repro.sim.machine`. Events at equal times fire in
scheduling order (a monotonically increasing sequence number breaks ties),
which keeps every simulation deterministic.

:class:`Engine` is a heap of ``(when, seq, callback)`` closures. The
machine's object path drains it directly; the batched core keeps its own
calendar of kind-coded events, across windows too, and merges whatever
outside code put on this heap as ``EV_CALL`` events
(``machine.engine.schedule`` works on both cores). Both share
:attr:`Engine._seq`, so their (when, seq) orders agree. The ``EV_*``
kind codes below are the batched core's side of that contract.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.errors import SimulationError

__all__ = [
    "Engine",
    "EV_CALL",
    "EV_STEP",
    "EV_BUSY",
    "EV_DRAIN",
]

_INF = float("inf")

#: Event kinds of the batched core. The payload is interpreted per kind:
#: a zero-arg callable (CALL — external ``Engine.schedule`` traffic merged
#: into the batched run), a SimThread (STEP: resume the generator; BUSY:
#: its in-flight busy chunk ended), or a SimEvent (DRAIN: release waiters).
EV_CALL = 0
EV_STEP = 1
EV_BUSY = 2
EV_DRAIN = 3


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

    def schedule_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run *fn* at absolute time *when* (finite, >= now)."""
        if not self.now <= when < _INF:
            raise SimulationError(
                f"cannot schedule in the past (when={when}, now={self.now})"
                if when < self.now else f"non-finite event time {when}"
            )
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, fn))

    @property
    def pending(self) -> int:
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        if not self._heap:
            return False
        when, _, fn = heapq.heappop(self._heap)
        if when < self.now:
            raise SimulationError("event queue went backwards in time")
        self.now = when
        self._events_processed += 1
        fn()
        return True

    def run(self, *, max_cycles: float | None = None, max_events: int | None = None) -> None:
        """Drain the queue, optionally stopping at a time/event budget."""
        heap = self._heap
        pop = heapq.heappop
        budget = None
        if max_events is not None:
            budget = self._events_processed + max_events
        while heap:
            if max_cycles is not None and heap[0][0] > max_cycles:
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
