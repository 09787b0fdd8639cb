"""Dynamic cross-check: run the program and confirm/refute static findings.

The static analyzers reason about probed patterns; this module executes
the real program on the discrete-event machine with a monitor attached
to two taps the simulator serves on *both* run-loop cores:

* ``SimMachine.monitors`` — every ``Touch`` is observed together with
  the operation's *runtime* lockset (the handles actually held at that
  virtual instant), every block and finish is counted;
* ``OSScheduler.on_place`` — every PU occupation, recorded as each
  thread's placement history independently of the counters.

Event/time progress for the run summary is read off the engine after
the run; :attr:`DynamicResult.core` records which core executed —
normally ``"batched"``.

``cross_check`` then reconciles: a statically predicted deadlock that
manifests as a :class:`DeadlockError` (or a predicted race observed as
an unguarded overlapping access) is *confirmed*; a prediction the small
execution never hits is demoted to a note; a dynamic-only observation
is flagged as a static miss. The migration proof (every thread pinned)
is checked against the run's migration counter, which must read 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.analyze.races import effective_lockset
from repro.analyze.report import Finding, Report
from repro.errors import DeadlockError, InvariantViolation, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.orwl.runtime import Runtime

__all__ = ["DynamicMonitor", "DynamicResult", "run_dynamic", "cross_check"]

#: Default event budget for cross-check executions (small programs).
DEFAULT_MAX_EVENTS = 2_000_000

#: Static codes that predict an execution deadlock.
DEADLOCK_CODES = frozenset(
    {"deadlock-cycle", "stalled-fifo", "unreleased-handle"}
)


class DynamicMonitor:
    """Lockset/placement monitor for one runtime's execution."""

    def __init__(
        self, runtime: "Runtime", aliases: dict[int, set[int]] | None = None
    ) -> None:
        self.runtime = runtime
        self.aliases = aliases or {}
        self._ops = runtime.operations
        self._loc_by_buffer = {}  # filled lazily (buffers exist post-schedule)
        #: (buffer_id) -> list of (op, write, lockset) — first occurrence
        #: per (op, write, lockset) to bound memory on long runs.
        self.accesses: dict[int, list] = {}
        self._seen_access: set = set()
        self.buffer_label: dict[int, str] = {}
        #: tid -> PU occupation history, consecutive duplicates collapsed.
        self.placements: dict[int, list[int]] = {}
        self.blocks = 0
        self.finished = 0
        #: Progress totals, filled from the engine after the run (not a
        #: per-event watcher — that would force the object path).
        self.last_time = 0.0
        self.steps = 0

    # -- SimMachine monitor protocol -----------------------------------------

    def on_touch(self, thread, buffer, nbytes, write) -> None:
        if thread.tid >= len(self._ops):
            return  # control threads touch nothing of interest
        op = self._ops[thread.tid]
        held = tuple(h for h in op.all_handles if h.held)
        lockset = effective_lockset(held, self.aliases)
        bid = id(buffer)
        if bid not in self._loc_by_buffer:
            self._loc_by_buffer[bid] = next(
                (l_ for l_ in self.runtime.locations if l_.buffer is buffer),
                None,
            )
        loc = self._loc_by_buffer[bid]
        self.buffer_label[bid] = (
            loc.name if loc is not None else getattr(buffer, "label", "<buffer>")
        )
        key = (bid, op.op_id, write, lockset)
        if key in self._seen_access:
            return
        self._seen_access.add(key)
        self.accesses.setdefault(bid, []).append((op, write, lockset))

    def on_block(self, thread, event) -> None:
        self.blocks += 1

    def on_finish(self, thread) -> None:
        self.finished += 1

    # -- OSScheduler.on_place hook -------------------------------------------

    def on_place(self, pu: int, thread) -> None:
        hist = self.placements.setdefault(thread.tid, [])
        if not hist or hist[-1] != pu:
            hist.append(pu)

    # -- derived observations ----------------------------------------------------

    def race_pairs(self) -> list[tuple[str, str, str, str]]:
        """Observed unguarded conflicting pairs:
        ``(buffer_label, op_a, op_b, kind)``."""
        out = []
        seen: set = set()
        for bid, entries in self.accesses.items():
            for i, (op_a, w_a, locks_a) in enumerate(entries):
                for op_b, w_b, locks_b in entries[i + 1:]:
                    if op_a is op_b or not (w_a or w_b):
                        continue
                    if locks_a & locks_b:
                        continue
                    key = (bid, frozenset((op_a.op_id, op_b.op_id)))
                    if key in seen:
                        continue
                    seen.add(key)
                    kind = "write/write" if (w_a and w_b) else "read/write"
                    out.append(
                        (self.buffer_label[bid], op_a.name, op_b.name, kind)
                    )
        return out


@dataclass
class DynamicResult:
    """Outcome of one monitored execution."""

    completed: bool
    deadlocked: bool
    budget_exhausted: bool = False
    error: str = ""
    blocked: list[str] = field(default_factory=list)
    races: list[tuple[str, str, str, str]] = field(default_factory=list)
    migrations: int = 0
    seconds: float = 0.0
    monitor: DynamicMonitor | None = None
    #: Which simulator core executed the monitored run ("batched" unless
    #: something forced the object path).
    core: str = ""
    #: SimSanitizer coverage of the run: live+post-run invariant checks
    #: performed (0 when the run was not sanitized) and any violations.
    sanitizer_checks: int = 0
    sanitizer_violations: list[str] = field(default_factory=list)


def run_dynamic(
    build: Callable[[], "Runtime"],
    *,
    aliases: dict[int, set[int]] | None = None,
    max_events: int = DEFAULT_MAX_EVENTS,
    sanitize: bool = False,
) -> DynamicResult:
    """Build a fresh runtime, attach the monitor, execute, observe.

    With *sanitize* the execution also runs under the SimSanitizer's
    checked-mode invariants (:mod:`repro.analyze.invariants`).
    """
    rt = build()
    monitor = DynamicMonitor(rt, aliases)
    machine = rt.machine
    if sanitize:
        machine.sanitize = True
    machine.monitors.append(monitor)
    machine.scheduler.on_place.append(monitor.on_place)

    completed = deadlocked = budget_exhausted = False
    error = ""
    sanitizer_violations: list[str] = []
    seconds = 0.0
    try:
        result = rt.run(max_events=max_events)
        seconds = result.seconds
        completed = True
    except DeadlockError as exc:
        deadlocked = True
        error = str(exc)
    except InvariantViolation as exc:
        error = str(exc)
        sanitizer_violations.append(str(exc))
    except SimulationError as exc:
        budget_exhausted = True
        error = str(exc)
    monitor.steps = machine.engine.events_processed
    monitor.last_time = machine.engine.now
    sanitizer_checks = 0
    if machine.sanitizer is not None:
        sanitizer_checks = machine.sanitizer.checks
        for violation in machine.sanitizer.violations:
            if violation not in sanitizer_violations:
                sanitizer_violations.append(violation)

    blocked = [
        t.name
        + (f" on {t.waiting_on.name!r}" if t.waiting_on is not None else "")
        for t in machine.threads
        if t.state == "blocked"
    ]
    migrations = int(machine.total_counters().cpu_migrations)
    return DynamicResult(
        completed=completed,
        deadlocked=deadlocked,
        budget_exhausted=budget_exhausted,
        error=error,
        blocked=blocked,
        races=monitor.race_pairs(),
        migrations=migrations,
        seconds=seconds,
        monitor=monitor,
        core=machine.core_used or "",
        sanitizer_checks=sanitizer_checks,
        sanitizer_violations=sanitizer_violations,
    )


def cross_check(
    static: Report,
    result: DynamicResult,
    *,
    migrations_proved: bool | None = None,
) -> list[Finding]:
    """Reconcile static findings with the observed execution."""
    findings: list[Finding] = []

    def f(severity, code, message, subject=""):
        findings.append(
            Finding(severity, code, message, subject=subject, source="dynamic")
        )

    # -- deadlock -------------------------------------------------------------
    predicted = [x for x in static.findings if x.code in DEADLOCK_CODES]
    if result.deadlocked:
        blocked = ", ".join(result.blocked[:8]) or "<unknown>"
        if predicted:
            f("note", "deadlock-confirmed",
              "execution deadlocked as statically predicted; blocked: "
              f"{blocked}", subject=blocked)
        else:
            f("warning", "deadlock-unpredicted",
              f"execution deadlocked ({blocked}) although static analysis "
              "found no zero-lag cycle", subject=blocked)
    elif predicted:
        severity = "note" if result.budget_exhausted else "warning"
        f(severity, "deadlock-unconfirmed",
          f"{len(predicted)} static deadlock finding(s) were not observed "
          + ("before the event budget ran out"
             if result.budget_exhausted else "on this execution"))

    # -- races ----------------------------------------------------------------
    static_race_subjects = {
        x.subject for x in static.findings if x.code == "data-race"
    }
    observed_subjects = set()
    for label, op_a, op_b, kind in result.races:
        observed_subjects.add(label)
        if label in static_race_subjects:
            f("note", "race-confirmed",
              f"{kind} race on {label!r} between {op_a} and {op_b} observed "
              "at run time with empty common lockset", subject=label)
        else:
            f("warning", "race-unpredicted",
              f"unguarded {kind} overlap on {label!r} between {op_a} and "
              f"{op_b} observed but not statically predicted", subject=label)
    for label in sorted(static_race_subjects - observed_subjects):
        f("note", "race-unconfirmed",
          f"static race on {label!r} was not observed on this execution "
          "(interleaving-dependent)", subject=label)

    # -- sanitizer -------------------------------------------------------------
    for violation in result.sanitizer_violations:
        f("error", "sanitizer-violation", violation)
    if result.sanitizer_checks and not result.sanitizer_violations:
        f("note", "sanitizer-clean",
          f"{result.sanitizer_checks} simulator invariant check(s) held "
          "during the monitored execution")

    # -- migrations ------------------------------------------------------------
    if migrations_proved and result.completed:
        if result.migrations == 0:
            f("note", "migrations-zero-confirmed",
              "all threads pinned; observed CPU migrations = 0 as proved")
        else:
            f("error", "migration-despite-binding",
              f"{result.migrations} CPU migration(s) observed although "
              "every thread is bound to a single PU")
    return findings
