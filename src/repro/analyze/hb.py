"""Happens-before race verdicts: vector-clock replay of probed patterns.

The lockset pass (:mod:`repro.analyze.races`) is a lock-discipline
heuristic: it over-reports on FIFO-ordered idioms and cannot tell a
benign ordering from a missing one. This module replays the probed
acquisition patterns against an *abstract model* of the ORWL request
FIFOs and derives the happens-before relation with vector clocks, then
classifies every candidate race pair:

``CONFIRMED``
    the two conflicting accesses are HB-concurrent in the replay — a
    real race, no protocol edge orders them;
``ORDERED``
    both operations replayed to completion and every conflicting access
    pair was separated by an HB edge — the lockset report is a false
    positive;
``""`` (unknown)
    the replay could not cover both operations (truncated probe, body
    error, stalled FIFO) — the lockset verdict stands.

Replay model
------------

* Each location gets an abstract FIFO seeded from
  :func:`repro.orwl.runtime.initial_request_order` — the same helper
  ``schedule()`` uses, so grant order matches the runtime by
  construction. Writers are exclusive, adjacent readers coalesce, and
  iterative handles re-insert their next-round slot *before* releasing
  (the ORWL_SECTION2 rule).
* Each operation's script is its probed event list; iterative patterns
  repeat for :data:`ROUNDS` rounds so cross-round edges (producer round
  *k+1* vs consumer round *k*) are exercised.
* Vector clocks are ``op_id -> int`` maps. A grant joins the clock the
  FIFO accumulated from every earlier release on that location (exact
  for a FIFO: group *k* activates only after groups ``0..k-1`` fully
  released); each executed event bumps the op's own component, giving
  every access a unique epoch.
* Per-buffer access state keeps a *last-write epoch* plus read/write
  maps pruned to HB-maximal entries — the FastTrack fast path: in the
  steady state each map holds a single epoch and the race check is one
  comparison.

Split-descriptor delegation
---------------------------

The one idiom that needs modelling beyond the raw protocol is the
zero-copy scatter (video's ``gmm_work``/``ccl_work``): a publisher
write-touches descriptor location *M* while holding ``w(M)`` and
``r(L)``, and split workers then touch *L*'s buffer holding only
``r(M)``. In full ORWL the split sub-sections would hold real read
slots on *L* itself; this repo models them on *M* only. The replay
restores the intended semantics with a **delegation rule**: when the
publisher pattern is observed, the publisher's active ``r(L)`` slot is
not released until *M*'s next reader group (the workers) drains, and
the deferred release clock joins the publisher's and all delegates'
clocks. *L*'s next writer grant therefore happens-after every worker
read — exactly the transitive guarantee the lockset pass approximated
with the hand-coded alias rule, now derived from the protocol itself.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analyze.probe import ACQUIRE, RELEASE, OpPattern

if TYPE_CHECKING:  # pragma: no cover
    from repro.orwl.handle import Handle
    from repro.orwl.runtime import Runtime

__all__ = ["ROUNDS", "CONFIRMED", "ORDERED", "HBResult", "check_hb"]

#: Rounds an iterative pattern is replayed. Three rounds cover every
#: steady-state edge shape: round-0 warmup, a full middle round, and
#: the producer-(k+1)-vs-consumer-(k) overlap in both directions.
ROUNDS = 3

CONFIRMED = "CONFIRMED"
ORDERED = "ORDERED"

_Clock = dict  # op_id -> int


def _join(into: _Clock, other: _Clock) -> None:
    for k, v in other.items():
        if into.get(k, 0) < v:
            into[k] = v


class _Slot:
    """One request in an abstract location FIFO (handle × round)."""

    __slots__ = ("handle", "mode", "op_id", "active", "released",
                 "grant_clock", "delegated_to")

    def __init__(self, handle: "Handle") -> None:
        self.handle = handle
        self.mode = handle.mode
        self.op_id = handle.op.op_id
        self.active = False
        self.released = False
        self.grant_clock: _Clock = {}
        #: Descriptor locations this slot's release is delegated to — one
        #: per published descriptor (fan-out publication marks several).
        self.delegated_to: list["_Fifo"] = []


@dataclass
class _Gate:
    """Completion count for a fan-out delegated release: the deferred
    release on L fires once, after the delegations of *every* published
    descriptor location have resolved."""

    remaining: int


@dataclass
class _Delegation:
    """A deferred release: publisher's slot on L waits for M's readers."""

    src: "_Fifo"  # L's fifo — where the deferred release lands
    slot: _Slot  # the publisher's r(L) slot being held open
    clock: _Clock  # publisher clock, joined with delegates as they release
    publisher: int  # op_id — the publisher is never its own delegate
    created_epoch: int  # M's activation epoch at publication time
    gate: _Gate  # shared across one slot's fan-out delegations
    watch: list = field(default_factory=list)  # slots still to drain


class _Fifo:
    """Abstract LocationFIFO: exclusive writers, coalesced readers."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.queue: deque[_Slot] = deque()
        self.active: list[_Slot] = []
        self.clock: _Clock = {}  # join of all release clocks so far
        self.epoch = 0  # activation counter (delegation attach point)
        self.pending: list[_Delegation] = []  # published, not yet attached
        self.watching: list[_Delegation] = []  # attached to a live group

    def insert(self, slot: _Slot) -> None:
        self.queue.append(slot)

    def advance(self, replay: "_Replay") -> None:
        if self.active or not self.queue:
            return
        head = self.queue.popleft()
        head.active = True
        group = [head]
        if head.mode == "r":
            while self.queue and self.queue[0].mode == "r":
                nxt = self.queue.popleft()
                nxt.active = True
                group.append(nxt)
        self.active.extend(group)
        self.epoch += 1
        grant = dict(self.clock)
        for slot in group:
            slot.grant_clock = grant
        # Attach delegations published before this activation to the
        # new group's foreign readers; no delegates means the deferred
        # release resolves with the publisher clock alone.
        if self.pending:
            ready = [d for d in self.pending if d.created_epoch < self.epoch]
            for d in ready:
                self.pending.remove(d)
                d.watch = [s for s in group
                           if s.mode == "r" and s.op_id != d.publisher]
                if d.watch:
                    self.watching.append(d)
                else:
                    replay.resolve(d)

    def release(self, slot: _Slot, clock: _Clock, replay: "_Replay") -> None:
        _join(self.clock, clock)
        slot.active = False
        slot.released = True
        self.active.remove(slot)
        for d in list(self.watching):
            if slot in d.watch:
                d.watch.remove(slot)
                _join(d.clock, clock)
                if not d.watch:
                    self.watching.remove(d)
                    replay.resolve(d)
        self.advance(replay)


class _BufferState:
    """FastTrack-style per-buffer access state.

    ``writes``/``reads`` map op_id to the epoch (own-component value) of
    that op's last HB-maximal access; entries subsumed by a newer access
    are pruned, so each map usually holds one epoch and the common-case
    check is a single comparison.
    """

    __slots__ = ("writes", "reads")

    def __init__(self) -> None:
        self.writes: dict[int, int] = {}
        self.reads: dict[int, int] = {}

    def access(self, op_id: int, clock: _Clock, write: bool):
        """Record one access; returns [(other_op, kind), ...] races."""
        races = []
        for other, epoch in self.writes.items():
            if other != op_id and clock.get(other, 0) < epoch:
                races.append((other, "write/write" if write else "read/write"))
        if write:
            for other, epoch in self.reads.items():
                if other != op_id and clock.get(other, 0) < epoch:
                    races.append((other, "read/write"))
        mine = clock.get(op_id, 0)
        if write:
            self.writes = {o: e for o, e in self.writes.items()
                           if o != op_id and clock.get(o, 0) < e}
            self.reads = {o: e for o, e in self.reads.items()
                          if o != op_id and clock.get(o, 0) < e}
            self.writes[op_id] = mine
        else:
            self.reads = {o: e for o, e in self.reads.items()
                          if o != op_id and clock.get(o, 0) < e}
            self.reads[op_id] = mine
        return races


@dataclass
class _OpState:
    op: object
    pattern: OpPattern
    script: list
    round_len: int
    idx: int = 0
    clock: _Clock = field(default_factory=dict)
    acquires: dict[int, int] = field(default_factory=dict)  # id(h) -> count
    releases: dict[int, int] = field(default_factory=dict)
    slots: dict[tuple[int, int], _Slot] = field(default_factory=dict)
    forgiven: bool = False  # stalled at a wrap-artifact re-acquire

    @property
    def done(self) -> bool:
        return self.forgiven or self.idx >= len(self.script)

    @property
    def eligible(self) -> bool:
        """May this op's pairs be certified ORDERED?"""
        return (self.done and not self.pattern.truncated
                and not self.pattern.error)


@dataclass
class HBResult:
    """Outcome of the happens-before replay."""

    #: (buffer_id, frozenset({op_a, op_b})) -> "write/write"|"read/write"
    raced: dict = field(default_factory=dict)
    #: op_id -> fully replayed with a trustworthy pattern
    eligible: dict = field(default_factory=dict)
    #: op_id -> replay stalled before the script ended
    stalled: set = field(default_factory=set)
    events_replayed: int = 0
    touches_checked: int = 0
    delegations: int = 0
    rounds: int = ROUNDS

    def verdict(self, buffer_id: int, op_ids) -> str:
        """Classify one candidate pair; "" when the replay can't tell."""
        key = (buffer_id, frozenset(op_ids))
        if key in self.raced:
            return CONFIRMED
        if all(self.eligible.get(o, False) for o in op_ids):
            return ORDERED
        return ""

    def summary(self) -> dict:
        return {
            "rounds": self.rounds,
            "events_replayed": self.events_replayed,
            "touches_checked": self.touches_checked,
            "delegations": self.delegations,
            "hb_races": len(self.raced),
            "ops_eligible": sum(1 for v in self.eligible.values() if v),
            "ops_stalled": len(self.stalled),
        }


class _Replay:
    def __init__(self, runtime: "Runtime",
                 patterns: dict[int, OpPattern], rounds: int) -> None:
        from repro.orwl.runtime import initial_request_order

        self.result = HBResult(rounds=rounds)
        self.fifos: dict[int, _Fifo] = {
            loc.loc_id: _Fifo(loc.name) for loc in runtime.locations
        }
        self.buffers: dict[int, _BufferState] = {}

        self.ops: list[_OpState] = []
        for op in runtime.operations:
            pattern = patterns.get(op.op_id)
            if pattern is None:
                continue
            repeat = rounds if pattern.iterative else 1
            self.ops.append(_OpState(
                op=op, pattern=pattern,
                script=list(pattern.events) * repeat,
                round_len=max(len(pattern.events), 1),
            ))
        self.by_op: dict[int, _OpState] = {
            s.op.op_id: s for s in self.ops
        }

        # Seed round-0 slots in the exact schedule() order, then open
        # each FIFO's first group — mirroring Runtime.schedule().
        for lid, handles in initial_request_order(runtime).items():
            fifo = self.fifos[lid]
            for handle in handles:
                state = self.by_op.get(handle.op.op_id)
                slot = _Slot(handle)
                if state is not None:
                    state.slots[(id(handle), 0)] = slot
                fifo.insert(slot)
        for fifo in self.fifos.values():
            fifo.advance(self)

    # -- delegation ----------------------------------------------------------

    def resolve(self, d: _Delegation) -> None:
        """Retire one delegation; the deferred release on the source
        FIFO fires when the last of the slot's fan-out group resolves."""
        d.gate.remaining -= 1
        if d.gate.remaining <= 0:
            d.src.release(d.slot, d.clock, self)

    def _force_resolve(self) -> bool:
        """Quiescence fallback: flush unresolved delegations as-is."""
        progressed = False
        for fifo in self.fifos.values():
            for d in list(fifo.watching) + list(fifo.pending):
                # A cascade from an earlier resolve may have handled d.
                if d in fifo.watching:
                    fifo.watching.remove(d)
                elif d in fifo.pending:
                    fifo.pending.remove(d)
                else:
                    continue
                self.resolve(d)
                progressed = True
        return progressed

    # -- the executor --------------------------------------------------------

    def _enabled(self, state: _OpState, ev) -> bool:
        if ev.kind != ACQUIRE:
            return True
        n = state.acquires.get(id(ev.handle), 0)
        slot = state.slots.get((id(ev.handle), n))
        return slot is not None and slot.active

    def _tick(self, state: _OpState) -> None:
        state.clock[state.op.op_id] = state.clock.get(state.op.op_id, 0) + 1
        self.result.events_replayed += 1

    def _execute(self, state: _OpState, ev) -> None:
        op_id = state.op.op_id
        if ev.kind == ACQUIRE:
            n = state.acquires.get(id(ev.handle), 0)
            state.acquires[id(ev.handle)] = n + 1
            slot = state.slots[(id(ev.handle), n)]
            _join(state.clock, slot.grant_clock)
        elif ev.kind == RELEASE:
            n = state.releases.get(id(ev.handle), 0)
            state.releases[id(ev.handle)] = n + 1
            slot = state.slots.get((id(ev.handle), n))
            if slot is None or not slot.active:
                self._tick(state)
                return  # release of a never-granted slot: wrap artifact
            fifo = self.fifos[ev.handle.location.loc_id]
            if ev.handle.iterative:
                nxt = _Slot(ev.handle)
                state.slots[(id(ev.handle), n + 1)] = nxt
                fifo.insert(nxt)  # ORWL_SECTION2: re-insert, then release
            if slot.delegated_to:
                targets = slot.delegated_to
                slot.delegated_to = []
                # Fan-out publication: one delegation per published
                # descriptor location, all sharing a single clock dict
                # (delegate joins accumulate) and a gate so the deferred
                # release on L fires exactly once, after every target's
                # delegates have drained.
                shared_clock = dict(state.clock)
                gate = _Gate(remaining=len(targets))
                for target in targets:
                    d = _Delegation(
                        src=fifo, slot=slot, clock=shared_clock,
                        publisher=op_id, created_epoch=target.epoch,
                        gate=gate,
                    )
                    self.result.delegations += 1
                    # If the publisher released w(M) before r(L), M's
                    # reader group (the delegates) is already active:
                    # watch those slots directly. Otherwise the
                    # publisher's own w(M) is still active and the
                    # delegates arrive with the next activation — park
                    # the delegation until then.
                    live = [s for s in target.active
                            if s.mode == "r" and s.op_id != op_id]
                    if live:
                        d.watch = live
                        target.watching.append(d)
                    else:
                        target.pending.append(d)
            else:
                fifo.release(slot, state.clock, self)
        else:  # TOUCH
            bid = id(ev.buffer)
            buf = self.buffers.get(bid)
            if buf is None:
                buf = self.buffers[bid] = _BufferState()
            self.result.touches_checked += 1
            for other, kind in buf.access(op_id, state.clock, ev.write):
                self.result.raced.setdefault(
                    (bid, frozenset((op_id, other))), kind
                )
            if ev.write:
                self._mark_publication(state, ev)
        self._tick(state)

    def _mark_publication(self, state: _OpState, ev) -> None:
        """Publisher pattern: write M's buffer under w(M) + r(L)."""
        held = ev.held
        writers = [h for h in held
                   if h.mode == "w" and h.location.buffer is ev.buffer]
        if not writers:
            return
        readers = [h for h in held if h.mode == "r"]
        for hw in writers:
            target = self.fifos[hw.location.loc_id]
            for hr in readers:
                if hr.location is hw.location:
                    continue
                n = state.acquires.get(id(hr), 0)
                slot = state.slots.get((id(hr), n - 1)) if n else None
                if slot is not None and slot.active:
                    if target not in slot.delegated_to:
                        slot.delegated_to.append(target)

    def _forgive_wrap_stalls(self) -> bool:
        """Unstick ops blocked on a wrap artifact of the probe.

        An iterative pattern repeated past round 0 may re-acquire a
        *non-iterative* handle (a prelude acquire the probe folded into
        the loop). No request exists for it; the op has executed every
        real round of that handle, so it is marked done-by-forgiveness
        rather than stalled.
        """
        progressed = False
        for state in self.ops:
            if state.done:
                continue
            ev = state.script[state.idx]
            if (ev.kind == ACQUIRE and not ev.handle.iterative
                    and state.idx >= state.round_len):
                state.forgiven = True
                progressed = True
        return progressed

    def run(self) -> HBResult:
        while True:
            progressed = False
            for state in self.ops:
                while not state.done:
                    ev = state.script[state.idx]
                    if not self._enabled(state, ev):
                        break
                    state.idx += 1
                    self._execute(state, ev)
                    progressed = True
            if progressed:
                continue
            if self._force_resolve():
                continue
            if self._forgive_wrap_stalls():
                continue
            break
        for state in self.ops:
            self.result.eligible[state.op.op_id] = state.eligible
            if not state.done:
                self.result.stalled.add(state.op.op_id)
        return self.result


def check_hb(
    runtime: "Runtime",
    patterns: dict[int, OpPattern],
    *,
    rounds: int = ROUNDS,
) -> HBResult:
    """Replay *patterns* against the abstract FIFOs; return verdict state.

    The runtime must be scheduled (the replay reads the canonical
    initial request order); probing may already have mutated the real
    FIFOs — the replay never touches them.
    """
    return _Replay(runtime, patterns, rounds).run()
