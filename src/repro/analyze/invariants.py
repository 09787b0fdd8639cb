"""SimSanitizer: checked-mode invariants for the simulator itself.

The difftest harness proves the two run-loop cores agree with each
other; the sanitizer proves a run agrees with the *model* — that virtual
time never goes backwards, that the scheduler's occupancy book-keeping
matches what the taps observe, that counters conserve across the
observer fold, that the ring trace respects its bounds. It is the
simulator's own ASan: off by default and strictly free when off (one
``if machine.sanitize`` test per run), enabled per-machine with
``SimMachine(..., sanitize=True)`` or globally with ``REPRO_SANITIZE=1``.

Invariant catalogue (see docs/ANALYZE.md for the full rationale):

live, via the native observe taps (both cores, bucket granularity):
  * ``clock-monotonic`` — ``engine.now`` is nondecreasing across every
    touch/block/finish/place callback;
  * ``occupancy`` — at every ``on_place(pu, thread)`` the scheduler's
    busy map says *thread* occupies *pu* and *pu*'s bit is clear in the
    free mask;
  * ``touch-bytes`` — observed touch sizes are nonnegative.

post-run, in ``verify()`` (clean completions only):
  * ``thread-states`` — every thread ended ``done``;
  * ``counters`` — per-thread counters nonnegative, remote traffic
    bounded by total traffic, and compute+control kind-splits conserve
    against the machine totals;
  * ``scheduler-idle`` — the busy map drained to empty and the free
    mask agrees with it: every PU's bit set, and no other bit;
  * ``observer-conservation`` — folded per-PU busy cycles equal the
    per-thread busy cycles, and registry totals match engine/ring
    ground truth;
  * ``ring-bounds`` — live records fit the capacity, timestamps are
    nondecreasing, and ``recorded - dropped`` equals the live length.

Cross-core fingerprint agreement (the difftest family under
``REPRO_SANITIZE=1``) uses :func:`fingerprint` as the canonical
comparable summary of a sanitized run.

Any violation raises :class:`repro.errors.InvariantViolation` naming the
invariant; the machine also keeps ``machine.sanitizer.checks`` so tests
can assert the sanitizer actually looked.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.errors import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import SimMachine

__all__ = ["SimSanitizer", "fingerprint"]

#: Counter fields that must never go negative.
_COUNTER_FIELDS = (
    "l3_misses", "l3_hits", "stalled_cycles", "context_switches",
    "cpu_migrations", "busy_cycles", "compute_cycles", "memory_cycles",
    "flops", "bytes_touched", "remote_bytes",
)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


class SimSanitizer:
    """Checked-mode invariants attached to one :class:`SimMachine` run.

    Instantiated by ``SimMachine.run()`` when sanitizing is on; the
    callbacks ride the same native taps every monitor uses, so both
    cores are covered and clock checks run at the cores' shared bucket
    granularity.
    """

    def __init__(self, machine: "SimMachine") -> None:
        self.machine = machine
        self.checks = 0  # how many live assertions ran (test visibility)
        self.violations: list[str] = []
        self._last_now = float("-inf")

    # -- live taps (monitor protocol + on_place) ----------------------------

    def _fail(self, invariant: str, detail: str) -> None:
        message = f"sanitizer invariant {invariant!r} violated: {detail}"
        self.violations.append(message)
        raise InvariantViolation(message)

    def _check_clock(self) -> None:
        now = self.machine.engine.now
        self.checks += 1
        if now < self._last_now:
            self._fail(
                "clock-monotonic",
                f"engine.now went backwards: {self._last_now} -> {now}",
            )
        self._last_now = now

    def on_touch(self, thread, buffer, nbytes, write) -> None:
        self._check_clock()
        if nbytes is not None and nbytes < 0:
            self._fail(
                "touch-bytes",
                f"thread {thread.name!r} touched {nbytes} bytes of "
                f"{getattr(buffer, 'label', '<buffer>')!r}",
            )

    def on_block(self, thread, event) -> None:
        self._check_clock()

    def on_finish(self, thread) -> None:
        self._check_clock()

    def on_place(self, pu: int, thread) -> None:
        self._check_clock()
        sched = self.machine.scheduler
        occupant = sched.thread_on(pu)
        if occupant is not thread:
            self._fail(
                "occupancy",
                f"on_place({pu}, {thread.name!r}) but the scheduler's "
                f"busy map holds "
                f"{occupant.name if occupant is not None else None!r}",
            )
        if sched._free >> pu & 1:
            self._fail(
                "occupancy",
                f"on_place({pu}, {thread.name!r}) but PU {pu} is still "
                "set in the free mask",
            )

    def attach(self) -> None:
        """Hook the machine's native taps (call before the drain loop)."""
        self.machine.monitors.append(self)
        self.machine.scheduler.on_place.append(self.on_place)

    # -- post-run verification ----------------------------------------------

    def verify(self, machine: "SimMachine") -> None:
        """All end-state invariants; call after a clean completion."""
        self._verify_threads(machine)
        self._verify_counters(machine)
        self._verify_scheduler(machine)
        self._verify_observer(machine)

    def _verify_threads(self, machine) -> None:
        for t in machine.threads:
            self.checks += 1
            if t.state != "done":
                self._fail(
                    "thread-states",
                    f"thread {t.name!r} ended in state {t.state!r}",
                )

    def _verify_counters(self, machine) -> None:
        total = machine.total_counters()
        for t in machine.threads:
            for field_name in _COUNTER_FIELDS:
                self.checks += 1
                value = getattr(t.counters, field_name)
                if value < 0:
                    self._fail(
                        "counters",
                        f"thread {t.name!r} has negative "
                        f"{field_name}={value}",
                    )
            if t.counters.remote_bytes > t.counters.bytes_touched and \
                    not _close(t.counters.remote_bytes,
                               t.counters.bytes_touched):
                self._fail(
                    "counters",
                    f"thread {t.name!r} moved more remote bytes "
                    f"({t.counters.remote_bytes}) than it touched "
                    f"({t.counters.bytes_touched})",
                )
        compute = machine.counters_by_kind("compute")
        control = machine.counters_by_kind("control")
        for field_name in _COUNTER_FIELDS:
            self.checks += 1
            split = (getattr(compute, field_name)
                     + getattr(control, field_name))
            whole = getattr(total, field_name)
            if not _close(split, whole):
                self._fail(
                    "counters",
                    f"kind split of {field_name} does not conserve: "
                    f"compute+control={split} vs total={whole}",
                )

    def _verify_scheduler(self, machine) -> None:
        sched = machine.scheduler
        for pu, occupant in sched._busy.items():
            self.checks += 1
            if occupant is not None:
                self._fail(
                    "scheduler-idle",
                    f"PU {pu} still occupied by {occupant.name!r} after "
                    "the run drained",
                )
        self.checks += 1
        idle = sum(1 << pu for pu in sched._busy)
        if sched._free != idle:
            self._fail(
                "scheduler-idle",
                f"free mask ended at {sched._free:#x}, but the busy map "
                f"has every PU free ({idle:#x})",
            )

    def _verify_observer(self, machine) -> None:
        obs = machine.observer
        if obs is None:
            return
        snapshot = obs.snapshot()
        self.checks += 1
        processed = snapshot.get("sim_events_processed_total")
        if processed is not None and processed != machine.engine.events_processed:
            self._fail(
                "observer-conservation",
                f"registry says {processed} events processed, engine "
                f"says {machine.engine.events_processed}",
            )
        if obs.pu_busy is not None:
            self.checks += 1
            folded = sum(obs.pu_busy)
            threads = sum(t.counters.busy_cycles for t in machine.threads)
            if not _close(folded, threads):
                self._fail(
                    "observer-conservation",
                    f"per-PU busy cycles ({folded}) != per-thread busy "
                    f"cycles ({threads})",
                )
        ring = obs.ring
        if ring is not None:
            records = ring.records()
            self.checks += 1
            if len(records) > ring.capacity:
                self._fail(
                    "ring-bounds",
                    f"{len(records)} live records exceed capacity "
                    f"{ring.capacity}",
                )
            self.checks += 1
            if ring.recorded - ring.dropped != len(records):
                self._fail(
                    "ring-bounds",
                    f"recorded({ring.recorded}) - dropped({ring.dropped}) "
                    f"!= live({len(records)})",
                )
            last_ts = float("-inf")
            for record in records:
                ts = record[1]
                if ts < last_ts:
                    self._fail(
                        "ring-bounds",
                        f"ring timestamps go backwards: {last_ts} -> {ts}",
                    )
                last_ts = ts
            self.checks += 1


def fingerprint(machine: "SimMachine") -> dict:
    """Canonical comparable summary of a completed (sanitized) run.

    The cross-core agreement invariant: running the same program on the
    batched and object cores must yield equal fingerprints. The difftest
    family asserts this under ``REPRO_SANITIZE=1``.
    """
    return {
        "core_used": machine.core_used,
        "counters": machine.total_counters().snapshot(),
        "elapsed_cycles": machine.elapsed_cycles,
        "events_processed": machine.engine.events_processed,
        "thread_states": tuple(t.state for t in machine.threads),
        "sanitizer_checks": (
            machine.sanitizer.checks if machine.sanitizer else 0
        ),
    }
