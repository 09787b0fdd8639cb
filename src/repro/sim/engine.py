"""The discrete-event core: a time-ordered callback queue.

Deliberately minimal — all machine semantics (PUs, scheduling, caches)
live above it in :mod:`repro.sim.machine`. Events at equal times fire in
scheduling order (a monotonically increasing sequence number breaks ties),
which keeps every simulation deterministic.

Two queue representations share this module:

:class:`Engine`
    the *object* queue — a heap of ``(when, seq, callback)`` closures.
    This is the compatibility path, and the one external code talks to
    (``machine.engine.schedule`` keeps working on both paths). Its
    per-event :attr:`Engine.watchers` callback is the only tap that
    still requires it — monitors, traces and the
    :mod:`repro.sim.observe` layer run natively on either path.

:class:`BatchedQueue`
    the queue of the machine's *batched core*: a calendar queue that
    groups events by timestamp into flat ``[seq, kind, payload, ...]``
    buckets ordered by a small min-heap of *unique* timestamps. No
    closure is allocated per event, popping is a list index instead of
    a heap sift, and a whole same-instant bucket is exactly the batch
    the quantum-batched dispatcher in :mod:`repro.sim.machine`
    vectorizes over. The machine selects it automatically whenever no
    ``Engine.watchers`` tap is installed; fixed-seed runs produce
    bit-identical counters and clocks on either path (see
    ``tests/test_sim_batched_equivalence.py``).

This is the innermost loop of every experiment cell: a paper-scale
regeneration drains hundreds of millions of events through the drain
loops, so both classes are slotted and the hot loops bind their names
locally; :meth:`Engine.run` additionally skips the watcher dispatch
entirely while no watcher is registered.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.errors import SimulationError

__all__ = [
    "Engine",
    "BatchedQueue",
    "EV_CALL",
    "EV_STEP",
    "EV_BUSY",
    "EV_DRAIN",
]

#: Event kinds of the batched core. The payload is interpreted per kind:
#: a zero-arg callable (CALL — external ``Engine.schedule`` traffic merged
#: into the batched run), a SimThread (STEP: resume the generator; BUSY:
#: its in-flight busy chunk ended), or a SimEvent (DRAIN: release waiters).
EV_CALL = 0
EV_STEP = 1
EV_BUSY = 2
EV_DRAIN = 3


class _ReStep:
    """Object-path re-entry shim for a batched-core ``EV_STEP`` event.

    When a windowed run (``SimMachine.run_window``) exits, leftover bucket
    events are converted to ``(when, seq, callable)`` heap entries so the
    object engine — and the next window, whatever core it drains on — can
    resume them. Plain lambdas would be opaque; these typed shims let the
    batched core's merge loop recognize a re-entering event and rebuild
    its kind-coded triple instead of demoting it to ``EV_CALL`` forever.
    """

    __slots__ = ("m", "t")

    def __init__(self, m, t) -> None:
        self.m = m
        self.t = t

    def __call__(self) -> None:
        self.m._step(self.t)


class _ReBusy:
    """Re-entry shim for ``EV_BUSY``."""

    __slots__ = ("m", "t")

    def __init__(self, m, t) -> None:
        self.m = m
        self.t = t

    def __call__(self) -> None:
        self.m._busy_done(self.t, self.t.cur_chunk)


class _ReDrain:
    """Re-entry shim for ``EV_DRAIN``."""

    __slots__ = ("m", "e")

    def __init__(self, m, e) -> None:
        self.m = m
        self.e = e

    def __call__(self) -> None:
        self.m._drain_event(self.e)


class BatchedQueue:
    """Calendar-bucket event queue for the batched simulator core.

    Events are grouped by exact timestamp: ``buckets[when]`` is one flat
    list interleaving ``seq, kind, payload`` triples (stride 3) — most
    buckets hold a single event, and one 3-element list is a lot cheaper
    to allocate than three 1-element lists — and :attr:`when_heap` is a
    min-heap of the *unique* timestamps (plain floats, so sifts compare
    natively). Sequence numbers are allocated monotonically
    (``Engine._seq``), therefore append order within a bucket *is* seq
    order and popping degenerates to indexing a list: no per-event tuple
    allocation, no per-event heap sift. Events scheduled at the
    timestamp currently draining land at the tail of the live bucket
    with higher seqs, so exact ``(when, seq)`` order is preserved for
    free.

    The hot loop in :mod:`repro.sim.machine` deliberately reaches into
    :attr:`buckets`/:attr:`when_heap` directly (bound to locals); the
    methods here are the convenience surface for setup and tests.
    """

    __slots__ = ("buckets", "when_heap")

    def __init__(self) -> None:
        #: when -> flat [seq, kind, payload, ...] triples in seq order.
        self.buckets: dict[float, list] = {}
        self.when_heap: list[float] = []

    def __len__(self) -> int:
        return sum(len(b) for b in self.buckets.values()) // 3

    def push(self, when: float, seq: int, kind: int, payload) -> None:
        b = self.buckets.get(when)
        if b is None:
            self.buckets[when] = [seq, kind, payload]
            heapq.heappush(self.when_heap, when)
        else:
            b.append(seq)
            b.append(kind)
            b.append(payload)

    def peek_when(self) -> float | None:
        return self.when_heap[0] if self.when_heap else None

    def pop_batch(self) -> tuple[float, list[int], list[int], list] | None:
        """Remove and return the earliest bucket ``(when, seqs, kinds,
        payloads)``, or None when empty. Batch semantics are exact: every
        event the simulation will ever see at this timestamp that was
        scheduled *before* this call is in the bucket, in seq order."""
        if not self.when_heap:
            return None
        when = heapq.heappop(self.when_heap)
        b = self.buckets.pop(when)
        return when, b[0::3], b[1::3], b[2::3]


class Engine:
    """A deterministic event queue over a virtual clock (in cycles)."""

    __slots__ = ("now", "_heap", "_seq", "_events_processed", "watchers")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._events_processed = 0
        #: Observers called as ``watcher(now)`` after every processed
        #: event. Keep them cheap: they run inside the hot loop. This is
        #: the one tap the batched core cannot serve (it forces the
        #: object path — see SimMachine._unsupported_taps); prefer the
        #: repro.sim.observe layer, which works on both cores. Register
        #: before :meth:`run`; the drain loop snapshots the list object.
        self.watchers: list[Callable[[float], None]] = []

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run *fn* at ``now + delay`` (delay may be 0, never negative)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn))

    def schedule_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run *fn* at absolute time *when* (>= now)."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule in the past (when={when}, now={self.now})"
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
        if self.watchers:
            for watcher in self.watchers:
                watcher(self.now)
        return True

    def run(self, *, max_cycles: float | None = None, max_events: int | None = None) -> None:
        """Drain the queue, optionally stopping at a time/event budget."""
        heap = self._heap
        pop = heapq.heappop
        watchers = self.watchers
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
            if watchers:
                now = self.now
                for watcher in watchers:
                    watcher(now)
