"""Acquisition-pattern extraction: run each body once, force-granting locks.

The deadlock and race analyzers need to know in which *order* an
operation's body acquires, releases and touches its handles — and bodies
are opaque generators, so declaration order is not enough (matmul, for
one, releases its own slot *before* acquiring its predecessor's). The
probe drives each body in isolation after ``schedule()``:

* a yielded ``Wait`` whose event belongs to one of the operation's handle
  requests is *force-granted* — the request is marked active directly in
  the location FIFO, bypassing the grant protocol — and recorded as an
  ``acquire`` event;
* releases are synchronous, so they are detected by diffing the set of
  held handles between yields (simultaneous releases are ordered by
  reverse acquisition order, the nested-unlock convention);
* ``Touch`` yields are recorded together with the handles held at that
  moment (the race analyzer's locksets);
* ``Compute``/``Spawn``/``YieldCPU`` and foreign waits are skipped.

Probing stops at the first *repeat* acquire (the steady-state iteration
boundary), at body completion, or at a step budget. Probing mutates
handle and FIFO state: a probed runtime must not be ``run()`` afterwards
— the analyzers build fresh runtimes per pass for exactly this reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.sim.process import Touch, Wait

if TYPE_CHECKING:  # pragma: no cover
    from repro.orwl.handle import Handle
    from repro.orwl.runtime import Runtime
    from repro.orwl.task import Operation

__all__ = ["PatternEvent", "OpPattern", "probe_operation", "probe_program"]

#: Per-operation budget of generator steps before giving up.
DEFAULT_BUDGET = 20_000

ACQUIRE = "acquire"
RELEASE = "release"
TOUCH = "touch"


@dataclass(frozen=True)
class PatternEvent:
    """One observed step of an operation's steady-state iteration."""

    kind: str  # "acquire" | "release" | "touch"
    handle: "Handle | None" = None  # acquire/release
    buffer: object = None  # touch: the simulated buffer
    write: bool = False  # touch
    held: tuple = ()  # touch: handles held at that moment


@dataclass
class OpPattern:
    """The probed behaviour of one operation."""

    op: "Operation"
    events: list[PatternEvent] = field(default_factory=list)
    #: True when probing stopped at a repeat acquire: the event list is
    #: one full iteration and wraps around (steady-state cycle).
    iterative: bool = False
    #: True when the step budget ran out before a boundary was found.
    truncated: bool = False
    #: Repr of an exception the body raised mid-probe, if any.
    error: str = ""

    @property
    def sync_events(self) -> list[PatternEvent]:
        """Only the acquire/release events (the deadlock-relevant ones)."""
        return [e for e in self.events if e.kind in (ACQUIRE, RELEASE)]

    @property
    def touch_events(self) -> list[PatternEvent]:
        return [e for e in self.events if e.kind == TOUCH]


def _held_handles(op: "Operation") -> list:
    return [h for h in op.all_handles if h.held]


def _handle_waiting_on(op: "Operation", event) -> "Handle | None":
    for h in op.all_handles:
        if h.current_request is not None and h.event is event:
            return h
    return None


def _force_grant(handle: "Handle") -> None:
    """Mark the handle's pending request active, bypassing the FIFO.

    ``Handle.release`` then works normally (it requires an active
    request); the FIFO's queue/active lists are kept consistent enough
    for repeated probing of the same location.
    """
    req = handle.current_request
    if req is None or req.active:
        return
    fifo = handle.location.fifo
    try:
        fifo.queue.remove(req)
    except ValueError:
        pass
    req.active = True
    fifo.active.append(req)


def probe_operation(
    runtime: "Runtime", op: "Operation", *, budget: int = DEFAULT_BUDGET
) -> OpPattern:
    """Extract one operation's acquisition pattern (see module docstring)."""
    pattern = OpPattern(op)
    if op.body is None:
        return pattern
    gen = op.body(op)
    if gen is None:
        return pattern

    acquired_ids: set[int] = set()  # handles acquired within the pattern
    acquire_order: dict[int, int] = {}  # id(handle) -> acquisition seq
    held_prev = _held_handles(op)

    def record_releases() -> list:
        nonlocal held_prev
        held_now = _held_handles(op)
        gone = [h for h in held_prev if not h.held]
        # Reverse acquisition order: the nested-unlock convention for
        # releases that happen back-to-back between two yields.
        gone.sort(key=lambda h: -acquire_order.get(id(h), -1))
        for h in gone:
            pattern.events.append(PatternEvent(RELEASE, handle=h))
        held_prev = held_now
        return gone

    for _ in range(budget):
        try:
            item = next(gen)
        except StopIteration:
            record_releases()
            return pattern
        except Exception as exc:  # body bug — surface as a finding
            record_releases()
            pattern.error = f"{type(exc).__name__}: {exc}"
            return pattern
        record_releases()
        if isinstance(item, Wait):
            h = _handle_waiting_on(op, item.event)
            if h is None:
                continue  # foreign event: resume optimistically
            if id(h) in acquired_ids:
                pattern.iterative = True  # steady-state boundary
                return pattern
            _force_grant(h)
            acquired_ids.add(id(h))
            acquire_order[id(h)] = len(acquire_order)
            pattern.events.append(PatternEvent(ACQUIRE, handle=h))
            # The handle becomes held when the generator resumes; count
            # it as held *now* so a release before the next yield (a
            # zero-work body) still shows up in the diff.
            held_prev.append(h)
        elif isinstance(item, Touch):
            pattern.events.append(
                PatternEvent(
                    TOUCH,
                    buffer=item.buffer,
                    write=item.write,
                    held=tuple(_held_handles(op)),
                )
            )
        # Compute / Spawn / YieldCPU: timing-only, skip.
    pattern.truncated = True
    return pattern


def probe_program(
    runtime: "Runtime", *, budget: int = DEFAULT_BUDGET
) -> dict[int, OpPattern]:
    """Probe every operation; returns ``op_id -> OpPattern``.

    The runtime must be scheduled (initial requests in the FIFOs); the
    runtime is consumed by the probe and must not be run afterwards.
    """
    return {
        op.op_id: probe_operation(runtime, op, budget=budget)
        for op in runtime.operations
    }
