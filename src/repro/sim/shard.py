"""Sharded multi-machine simulation with conservative time windows.

One :class:`SimMachine` simulates one machine. A :class:`Scenario`
composes several of them — *shards* — connected by latency-labelled
:class:`Channel`\\ s, and :func:`run_sharded` advances all shards in
lockstep epochs so the composed system has one deterministic global
behaviour regardless of how many OS processes execute it.

Protocol (classic conservative / lookahead-bounded synchronization):

* The *window* ``W`` is the minimum channel latency in the scenario.
  Epoch ``k`` drains every shard to the horizon ``T_k = k*W`` via
  :meth:`SimMachine.run_window`.
* A message sent at virtual time ``t`` in epoch ``k`` (so
  ``T_{k-1} < t <= T_k``) over a channel of latency ``L >= W`` is
  delivered at ``t + L > T_k`` — strictly inside a *later* window.
  Exchanging outboxes only at epoch barriers therefore never delivers a
  message into a window that has already run: no shard can observe an
  effect out of order, and no rollback machinery is needed.
* Deliveries are injected into the destination engine *before* its next
  window, sorted by ``(t_deliver, src shard, send order)`` — a total
  order derived purely from simulation content, never from OS scheduling
  — so event seq numbers, and hence the full trace, are identical for
  any worker count.

Parallelism: shard ``i`` is owned by worker ``i % workers``. Workers are
long-lived forked processes holding their shards' machines across epochs
(state never crosses the pipe; only horizon commands, outbox tuples and
delivery tuples do). ``workers=1`` runs every shard inline in the parent
with zero process overhead — the reference execution the parallel runs
must fingerprint-match. ``concurrent.futures`` is deliberately not
reused here: pool tasks must be picklable and stateless per call,
whereas shard workers keep live machines and talk over dedicated pipes;
:func:`repro.parallel.default_jobs` still supplies the worker default so
``REPRO_JOBS`` means the same thing everywhere.

Programs are registered by name (:func:`register_program`) and built per
shard against a :class:`ShardContext`, which wires cross-shard channels
to ordinary :class:`~repro.sim.process.SimEvent` waits — simulated code
never sees the transport.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import DeadlockError, SimulationError
from repro.sim.machine import SimMachine, SimThread
from repro.sim.process import Compute, SimEvent, Touch, Wait
from repro.topology import machine_by_name
from repro.util.bitmap import Bitmap

__all__ = [
    "Channel",
    "ShardSpec",
    "Scenario",
    "ShardRunResult",
    "available_cpus",
    "register_program",
    "run_sharded",
    "halo_ring_scenario",
    "SHARD_PROGRAMS",
]


def available_cpus() -> int:
    """CPUs this process may actually use.

    ``sched_getaffinity`` where available (cgroup/taskset aware — the
    honest number for "can 4 workers really run in parallel here"),
    ``os.cpu_count()`` otherwise. ``run_sharded(workers="auto")`` and
    the ``shard_scaling`` bench gate both consult this, so a 1-CPU CI
    container records *why* it skipped the speedup claim instead of
    silently failing it.
    """
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# -- scenario description ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Channel:
    """A directed cross-shard link with a fixed delivery latency (cycles).

    The latency is the *lookahead* the conservative protocol exploits:
    the smallest latency in a scenario bounds the window size, so links
    should carry honest transport delays (a cluster interconnect is
    many thousand cycles), not zero.
    """

    src: str
    dst: str
    name: str
    latency: float

    def __post_init__(self) -> None:
        if self.latency <= 0:
            raise SimulationError(
                f"channel {self.src}->{self.dst} {self.name!r}: latency must "
                f"be positive (it is the protocol lookahead), got {self.latency}"
            )
        if self.src == self.dst:
            raise SimulationError(
                f"channel {self.name!r}: src and dst are both {self.src!r}; "
                "intra-shard signalling needs no channel"
            )


@dataclass(frozen=True, slots=True)
class ShardSpec:
    """One machine of the scenario.

    ``topology`` is a preset *name* (see ``repro.topology.list_machines``)
    rather than a tree so specs stay trivially picklable — each worker
    materializes its own tree after fork. ``params`` feeds the program
    builder; entries must be hashable/serializable scalars.
    """

    name: str
    program: str
    topology: str = "smp12e5"
    seed: int = 0
    os_policy: str | None = None
    params: tuple[tuple[str, object], ...] = ()

    @staticmethod
    def make(
        name: str,
        program: str,
        *,
        topology: str = "smp12e5",
        seed: int = 0,
        os_policy: str | None = None,
        **params,
    ) -> "ShardSpec":
        """Keyword-friendly constructor (params dict → sorted tuple)."""
        return ShardSpec(
            name=name,
            program=program,
            topology=topology,
            seed=seed,
            os_policy=os_policy,
            params=tuple(sorted(params.items())),
        )


@dataclass(frozen=True, slots=True)
class Scenario:
    """A multi-machine simulation: shards plus the channels between them."""

    shards: tuple[ShardSpec, ...]
    channels: tuple[Channel, ...] = ()

    def __post_init__(self) -> None:
        if not self.shards:
            raise SimulationError("scenario has no shards")
        names = [s.name for s in self.shards]
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate shard names in {names}")
        known = set(names)
        for ch in self.channels:
            for end in (ch.src, ch.dst):
                if end not in known:
                    raise SimulationError(
                        f"channel {ch.src}->{ch.dst} {ch.name!r} references "
                        f"unknown shard {end!r}"
                    )

    def shard_index(self, name: str) -> int:
        for i, s in enumerate(self.shards):
            if s.name == name:
                return i
        raise SimulationError(f"unknown shard {name!r}")

    @property
    def window(self) -> float:
        """The conservative lookahead: the minimum channel latency."""
        if not self.channels:
            raise SimulationError(
                "scenario has no channels, so no lookahead bound exists; "
                "pass an explicit window= to run_sharded"
            )
        return min(ch.latency for ch in self.channels)


# -- program registry ----------------------------------------------------------

#: name → builder(ctx). Builders create threads on ``ctx.machine`` and
#: may capture ``ctx`` in generator closures (for send/inbox access).
SHARD_PROGRAMS: dict[str, Callable[["ShardContext"], None]] = {}


def register_program(name: str):
    """Decorator: register a shard program builder under *name*."""

    def deco(fn: Callable[["ShardContext"], None]):
        if name in SHARD_PROGRAMS:
            raise SimulationError(f"shard program {name!r} already registered")
        SHARD_PROGRAMS[name] = fn
        return fn

    return deco


class ShardContext:
    """What a program builder sees: its machine plus the channel wiring.

    Incoming channels appear as counting :class:`SimEvent`\\ s (one
    ``signal`` per delivered message); outgoing messages are emitted
    with :meth:`send`, which stamps the current virtual time and fans
    out over every out-channel bearing that name. The transport —
    epochs, pipes, workers — is invisible to simulated code.
    """

    def __init__(
        self,
        scenario: Scenario,
        shard_idx: int,
        machine: SimMachine,
    ) -> None:
        spec = scenario.shards[shard_idx]
        self.scenario = scenario
        self.shard_idx = shard_idx
        self.name = spec.name
        self.n_shards = len(scenario.shards)
        self.machine = machine
        self.params = dict(spec.params)
        #: (src shard name, channel name) → delivery event.
        self.inbox: dict[tuple[str, str], SimEvent] = {}
        #: out-channel name → list of (channel index, Channel).
        self._out: dict[str, list[tuple[int, Channel]]] = {}
        #: messages produced this epoch: (t_send, channel index).
        self.outbox: list[tuple[float, int]] = []
        for ci, ch in enumerate(scenario.channels):
            if ch.dst == self.name:
                self.inbox[(ch.src, ch.name)] = machine.event(
                    f"{ch.src}->{ch.dst}:{ch.name}"
                )
            if ch.src == self.name:
                self._out.setdefault(ch.name, []).append((ci, ch))

    def inbox_events(self, name: str) -> list[SimEvent]:
        """All in-channel events named *name*, in scenario shard order."""
        order = {s.name: i for i, s in enumerate(self.scenario.shards)}
        found = [
            (order[src], ev)
            for (src, cname), ev in self.inbox.items()
            if cname == name
        ]
        found.sort(key=lambda t: t[0])
        return [ev for _, ev in found]

    def send(self, name: str) -> int:
        """Send one message on every out-channel named *name*.

        Stamped with the engine's current virtual time (both cores keep
        ``engine.now`` current per event). Returns the number of
        channels the message fanned out to.
        """
        chans = self._out.get(name)
        if not chans:
            raise SimulationError(
                f"shard {self.name!r} has no outgoing channel named {name!r}"
            )
        now = self.machine.engine.now
        for ci, _ch in chans:
            self.outbox.append((now, ci))
        return len(chans)


# -- built-in programs ---------------------------------------------------------


@register_program("halo_wide")
def _build_halo_wide(ctx: ShardContext) -> None:
    """Wide bulk-synchronous compute with neighbour halo exchange.

    ``width`` bound worker threads (one per PU, wrapping) each run
    ``iters`` rounds of Compute+Touch, then rendezvous with a control
    thread that emits a ``halo`` message and waits for every incoming
    ``halo`` before releasing the next round — a distributed-stencil
    skeleton whose per-epoch work is wide enough to fill the batched
    core's same-instant batches and dwarf the barrier exchange.
    """
    m = ctx.machine
    width = int(ctx.params.get("width", 32))
    iters = int(ctx.params.get("iters", 4))
    flops = float(ctx.params.get("flops", 1e7))
    nbytes = int(ctx.params.get("bytes", 1 << 16))
    pus = [pu.os_index for pu in m.topology.pus]
    done = m.event("round_done")
    go = m.event("round_go")
    halo_in = ctx.inbox_events("halo")

    def worker(buf):
        def gen():
            for _ in range(iters):
                yield Compute(flops)
                yield Touch(buf, nbytes, write=True)
                done.signal()
                yield Wait(go)

        return gen

    for i in range(width):
        buf = m.allocate(nbytes, f"halo_buf{i}")
        cpuset = Bitmap.single(pus[i % len(pus)])
        m.add_thread(f"w{i}", worker(buf)(), cpuset=cpuset)

    def coordinator():
        for _ in range(iters):
            for _ in range(width):
                yield Wait(done)
            ctx.send("halo")
            for ev in halo_in:
                yield Wait(ev)
            go.signal(width)

    m.add_thread("coord", coordinator(), kind="control")


def halo_ring_scenario(
    n_shards: int,
    *,
    topology: str = "smp12e5",
    width: int = 32,
    iters: int = 4,
    flops: float = 1e7,
    nbytes: int = 1 << 16,
    latency: float = 5e7,
    seed: int = 0,
) -> Scenario:
    """A ring of ``halo_wide`` shards exchanging halos with neighbours."""
    if n_shards < 2:
        raise SimulationError("halo ring needs at least 2 shards")
    shards = tuple(
        ShardSpec.make(
            f"m{i}",
            "halo_wide",
            topology=topology,
            seed=seed + i,
            width=width,
            iters=iters,
            flops=flops,
            bytes=nbytes,
        )
        for i in range(n_shards)
    )
    links: list[Channel] = []
    seen: set[tuple[str, str]] = set()
    for i in range(n_shards):
        for j in ((i - 1) % n_shards, (i + 1) % n_shards):
            key = (f"m{i}", f"m{j}")
            if key not in seen:
                seen.add(key)
                links.append(Channel(key[0], key[1], "halo", latency))
    return Scenario(shards, tuple(links))


# -- per-shard runner (lives inside a worker) ----------------------------------


def _thread_done(t: SimThread) -> bool:
    return t.state in ("done", "unstarted")


class _ShardRunner:
    """One shard's machine plus its window/exchange bookkeeping."""

    def __init__(self, scenario: Scenario, shard_idx: int) -> None:
        spec = scenario.shards[shard_idx]
        builder = SHARD_PROGRAMS.get(spec.program)
        if builder is None:
            raise SimulationError(
                f"unknown shard program {spec.program!r}; known: "
                f"{sorted(SHARD_PROGRAMS)}"
            )
        self.machine = SimMachine(
            machine_by_name(spec.topology),
            os_policy=spec.os_policy,
            seed=spec.seed,
        )
        self.ctx = ShardContext(scenario, shard_idx, self.machine)
        builder(self.ctx)

    def window(
        self,
        until: float,
        deliveries: list[tuple[float, str, str]],
        max_events: int | None,
    ) -> tuple[int, list[tuple[float, int]], bool, int]:
        """Inject *deliveries*, drain to *until*; report (Δevents, outbox,
        done, pending)."""
        eng = self.machine.engine
        for t_deliver, src, cname in deliveries:
            ev = self.ctx.inbox.get((src, cname))
            if ev is None:
                raise SimulationError(
                    f"shard {self.ctx.name!r}: delivery on unknown channel "
                    f"({src!r}, {cname!r})"
                )
            if t_deliver <= eng.now:
                raise SimulationError(
                    f"conservative window violated: delivery at {t_deliver} "
                    f"but shard {self.ctx.name!r} already at {eng.now}"
                )
            eng.schedule_at(t_deliver, ev.signal)
        before = eng.events_processed
        self.machine.run_window(until, max_events=max_events)
        out = self.ctx.outbox
        self.ctx.outbox = []
        done = all(_thread_done(t) for t in self.machine.threads) and (
            eng.pending == 0
        )
        return eng.events_processed - before, out, done, eng.pending

    def finish(self) -> dict:
        m = self.machine
        return {
            "elapsed_seconds": m.elapsed_seconds,
            "now_cycles": m.engine.now,
            "events_processed": m.engine.events_processed,
            "threads": [
                {
                    "name": t.name,
                    "state": t.state,
                    "slices_run": t.slices_run,
                    "busy_cycles": t.counters.busy_cycles,
                    "l3_misses": t.counters.l3_misses,
                    "stalled_cycles": t.counters.stalled_cycles,
                    "context_switches": t.counters.context_switches,
                    "cpu_migrations": t.counters.cpu_migrations,
                }
                for t in m.threads
            ],
        }


# -- workers -------------------------------------------------------------------


class _InlineWorker:
    """Runs its shards in the calling process (workers=1 / no fork)."""

    def __init__(self, scenario: Scenario, shard_idxs: list[int]) -> None:
        self.shard_idxs = shard_idxs
        self._runners = {i: _ShardRunner(scenario, i) for i in shard_idxs}
        self._reply: dict | None = None

    def submit_window(self, until, deliveries_by_shard, max_events) -> None:
        self._reply = {
            i: r.window(until, deliveries_by_shard.get(i, []), max_events)
            for i, r in self._runners.items()
        }

    def collect(self) -> dict:
        reply, self._reply = self._reply, None
        return reply

    def finish(self) -> dict:
        return {i: r.finish() for i, r in self._runners.items()}

    def close(self) -> None:
        self._runners.clear()


def _worker_main(conn, scenario: Scenario, shard_idxs: list[int]) -> None:
    """Child process loop: build shards, serve window/finish commands."""
    try:
        runners = {i: _ShardRunner(scenario, i) for i in shard_idxs}
        conn.send(("ready", None))
        while True:
            cmd = conn.recv()
            op = cmd[0]
            if op == "window":
                _, until, deliveries_by_shard, max_events = cmd
                reply = {
                    i: r.window(
                        until, deliveries_by_shard.get(i, []), max_events
                    )
                    for i, r in runners.items()
                }
                conn.send(("ok", reply))
            elif op == "finish":
                conn.send(("ok", {i: r.finish() for i, r in runners.items()}))
            elif op == "stop":
                break
            else:  # pragma: no cover
                conn.send(("error", f"unknown command {op!r}"))
                break
    except BaseException as exc:  # pragma: no cover - transported to parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


#: What a pipe raises once the worker at its other end is gone.
_PIPE_ERRORS = (BrokenPipeError, ConnectionResetError, EOFError)


class _ProcessWorker:
    """A long-lived forked worker owning a subset of the shards."""

    def __init__(self, scenario: Scenario, shard_idxs: list[int]) -> None:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        self.shard_idxs = shard_idxs
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_worker_main, args=(child, scenario, shard_idxs), daemon=True
        )
        self._proc.start()
        child.close()
        self._expect("ready")

    def _died(self, exc: Exception) -> SimulationError:
        """The typed error for a pipe that broke because the worker died."""
        self._proc.join(timeout=5)
        return SimulationError(
            f"shard worker for shards {self.shard_idxs} died "
            f"(exit code {self._proc.exitcode}; {type(exc).__name__} "
            "on its pipe)"
        )

    def _send(self, msg: tuple) -> None:
        try:
            self._conn.send(msg)
        except _PIPE_ERRORS as exc:
            raise self._died(exc) from exc

    def _expect(self, want: str):
        try:
            status, payload = self._conn.recv()
        except _PIPE_ERRORS as exc:
            raise self._died(exc) from exc
        if status == "error":
            raise SimulationError(f"shard worker failed: {payload}")
        if status != want:  # pragma: no cover
            raise SimulationError(f"shard worker protocol: {status!r}")
        return payload

    def submit_window(self, until, deliveries_by_shard, max_events) -> None:
        mine = {
            i: deliveries_by_shard.get(i, []) for i in self.shard_idxs
        }
        self._send(("window", until, mine, max_events))

    def collect(self) -> dict:
        return self._expect("ok")

    def finish(self) -> dict:
        self._send(("finish",))
        return self._expect("ok")

    def close(self) -> None:
        try:
            self._conn.send(("stop",))
        except Exception:
            pass
        self._proc.join(timeout=5)
        if self._proc.is_alive():  # pragma: no cover
            self._proc.terminate()
        self._conn.close()


def _fork_available() -> bool:
    import multiprocessing as mp

    return "fork" in mp.get_all_start_methods()


# -- the driver ----------------------------------------------------------------


@dataclass(slots=True, eq=False)
class ShardRunResult:
    """Outcome of a sharded run.

    ``fingerprint`` hashes the complete deterministic content — every
    shard's final thread states and counters, the full message log, and
    the epoch count — and is invariant under ``workers`` by protocol
    construction; the determinism tests assert exactly that.
    """

    fingerprint: str
    epochs: int
    messages: int
    elapsed_seconds: float
    wall_seconds: float
    workers: int
    window: float
    per_shard: dict = field(default_factory=dict)

    @property
    def events_processed(self) -> int:
        return sum(s["events_processed"] for s in self.per_shard.values())


def _route_order(r: tuple) -> tuple:
    """(t_deliver, src shard idx, send seq) — the content-only total
    order on cross-shard messages. Module-level so the epoch loop does
    not rebuild a closure per iteration."""
    return (r[0], r[1], r[2])


def _fingerprint(per_shard: dict, message_log: list, epochs: int) -> str:
    payload = {
        "shards": per_shard,
        "messages": message_log,
        "epochs": epochs,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_sharded(
    scenario: Scenario,
    *,
    workers: int | str | None = None,
    window: float | None = None,
    max_epochs: int = 100_000,
    max_events_per_window: int | None = None,
) -> ShardRunResult:
    """Run a multi-machine scenario to completion.

    ``workers=None`` follows :func:`repro.parallel.default_jobs`
    (``REPRO_JOBS``, default 1); ``workers="auto"`` sizes the pool to
    :func:`available_cpus` (capped at the shard count like any explicit
    value). ``window`` overrides the lookahead bound — it must not
    exceed the minimum channel latency or the conservative guarantee
    breaks (enforced). The global trace fingerprint is identical for
    every ``workers`` value.
    """
    if workers is None:
        # Lazy: repro.parallel pulls in repro.experiments (which imports
        # the sim package) — a module-level import here would cycle.
        from repro.parallel.executor import default_jobs

        workers = default_jobs()
    elif workers == "auto":
        workers = available_cpus()
    n_shards = len(scenario.shards)
    workers = max(1, min(int(workers), n_shards))
    W = scenario.window if window is None else float(window)
    if W <= 0:
        raise SimulationError(f"window must be positive, got {W}")
    if scenario.channels and W > scenario.window:
        raise SimulationError(
            f"window {W} exceeds the minimum channel latency "
            f"{scenario.window}; the conservative protocol requires "
            "window <= lookahead"
        )

    # Shard i → worker i % workers (round-robin keeps neighbouring ring
    # shards on different workers, balancing the common topologies).
    assignment: list[list[int]] = [[] for _ in range(workers)]
    for i in range(n_shards):
        assignment[i % workers].append(i)

    use_procs = workers > 1 and _fork_available()
    pool = [
        (_ProcessWorker if use_procs else _InlineWorker)(scenario, idxs)
        for idxs in assignment
        if idxs
    ]
    name_of = [s.name for s in scenario.shards]
    dst_idx = [scenario.shard_index(ch.dst) for ch in scenario.channels]

    t0 = time.perf_counter()
    message_log: list = []
    epochs = 0
    total_messages = 0
    try:
        pending_deliveries: dict[int, list] = {}
        while True:
            if epochs >= max_epochs:
                raise SimulationError(
                    f"sharded run exceeded max_epochs={max_epochs} "
                    f"(window={W}); raise max_epochs or check for livelock"
                )
            epochs += 1
            until = epochs * W
            for w in pool:
                w.submit_window(until, pending_deliveries, max_events_per_window)
            replies: dict[int, tuple] = {}  # hotlint: ok(alloc) — one dict per epoch, not per event
            for w in pool:
                replies.update(w.collect())

            # Merge outboxes into next-epoch deliveries with a total
            # order independent of worker count and pipe arrival order.
            routed: list[tuple[float, int, int, int, str, float]] = []
            for si in range(n_shards):
                _, out, _, _ = replies[si]
                for seq, (t_send, ci) in enumerate(out):  # hotlint: ok(alloc) — seq numbers define the message order
                    ch = scenario.channels[ci]
                    td = t_send + ch.latency
                    if td <= until:
                        raise SimulationError(
                            f"lookahead violated: message on "
                            f"{ch.src}->{ch.dst} {ch.name!r} sent at "
                            f"{t_send} would deliver at {td} <= T_k={until}"
                        )
                    routed.append((td, si, seq, ci, ch.name, t_send))
            routed.sort(key=_route_order)
            pending_deliveries = {}  # hotlint: ok(alloc) — per-epoch routing table
            for td, si, _seq, ci, cname, t_send in routed:
                pending_deliveries.setdefault(dst_idx[ci], []).append(
                    (td, name_of[si], cname)
                )
                message_log.append(
                    [epochs, name_of[si], scenario.channels[ci].dst,
                     cname, t_send, td]
                )
            total_messages += len(routed)

            all_done = all(replies[si][2] for si in range(n_shards))  # hotlint: ok(alloc) — O(shards) per epoch
            if all_done and not routed:
                break
            processed = sum(replies[si][0] for si in range(n_shards))  # hotlint: ok(alloc) — O(shards) per epoch
            any_pending = any(replies[si][3] for si in range(n_shards))  # hotlint: ok(alloc) — O(shards) per epoch
            if processed == 0 and not routed and not any_pending:
                stuck = [  # hotlint: ok(alloc) — deadlock error path, cold
                    name_of[si]
                    for si in range(n_shards)
                    if not replies[si][2]
                ]
                raise DeadlockError(
                    f"sharded deadlock at epoch {epochs}: shards "
                    f"{stuck} are blocked with no events pending and no "
                    "messages in flight"
                )

        per_shard: dict = {}
        for w in pool:
            for si, res in w.finish().items():
                per_shard[name_of[si]] = res
    finally:
        for w in pool:
            w.close()
    wall = time.perf_counter() - t0
    elapsed = max(s["elapsed_seconds"] for s in per_shard.values())
    return ShardRunResult(
        fingerprint=_fingerprint(per_shard, message_log, epochs),
        epochs=epochs,
        messages=total_messages,
        elapsed_seconds=elapsed,
        wall_seconds=wall,
        workers=len(pool),
        window=W,
        per_shard=per_shard,
    )
