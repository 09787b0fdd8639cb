"""Cost-model constants for the machine simulator.

All latencies are in CPU cycles; sizes in bytes. Defaults are calibrated so
that the three applications land in the neighbourhood of the paper's
figures (see EXPERIMENTS.md for the calibration notes); the *relative*
behaviour — who wins, where curves flatten — is robust to these values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError

__all__ = ["CostModel", "SimLimits"]


@dataclass(frozen=True)
class SimLimits:
    """Runaway guards of the simulation run loop.

    Pass a custom instance as ``SimMachine(..., limits=SimLimits(...))``
    (the stress tests do).

    ``max_ops_per_step``: max zero-cost ops a thread may issue without
    consuming virtual time before the machine declares a livelock.
    ``max_events``: default event budget for ``SimMachine.run``.
    """

    max_ops_per_step: int = 100_000
    max_events: int = 20_000_000

    def __post_init__(self) -> None:
        if self.max_ops_per_step < 1:
            raise SimulationError("max_ops_per_step must be >= 1")
        if self.max_events < 1:
            raise SimulationError("max_events must be >= 1")


@dataclass(frozen=True)
class CostModel:
    """Tunable constants of the simulated hardware and OS.

    Compute
    -------
    ``cycles_per_flop``: inverse throughput of one core running one thread
    (0.5 ⇒ 2 flop/cycle, a conservative scalar+SSE mix; DGEMM-like kernels
    override this via their own op efficiency).
    ``ht_contention``: multiplier applied to compute when the hyperthread
    sibling of the core is simultaneously running another compute thread.
    ``control_cycles``: CPU consumed by one control-thread activation.

    Memory
    ------
    ``l3_hit_cycles``: average cycles per cache line served from L3 (covers
    the L1/L2/L3 mix for block-sized streaming accesses).
    ``mem_cycles_local``: cycles per line missed to local DRAM.
    Remote misses scale that by SLIT distance / 10 and add an interconnect
    bandwidth term. ``mem_parallelism``: outstanding-miss factor dividing
    raw per-line latency (memory-level parallelism of streaming code).
    ``stall_fraction``: fraction of a miss's latency counted as front-end
    stall cycles (Tables II–IV).

    Operating system
    ----------------
    ``timeslice_cycles``: scheduling quantum; long compute ops are chopped
    at this boundary so contention/migration is re-evaluated.
    ``rebalance_slices``: an *unbound* thread is re-placed by the OS
    policy every this-many quanta (the source of CPU migrations).
    ``context_switch_cycles``: direct cost of a context switch (~100 ns).
    ``migration_cycles``: direct cost of a cross-core migration.
    """

    cycles_per_flop: float = 0.5
    ht_contention: float = 1.8
    control_cycles: float = 3_000.0

    cache_line: int = 64
    l3_hit_cycles: float = 2.5
    mem_cycles_local: float = 60.0
    mem_parallelism: float = 8.0
    interconnect_cycles_per_byte: float = 1.0
    stall_fraction: float = 0.75
    write_invalidate: bool = True
    #: Hard bandwidth cap of one NUMA node's memory controller, in cycles
    #: per byte served: 0.12 cy/B ≈ 22 GB/s at 2.6 GHz. Miss traffic to a
    #: node is serviced FIFO at this rate no matter how many threads pull
    #: from it — the saturation that makes master-allocated data a hotspot
    #: and gives Fig. 4 its single-node plateau.
    node_bandwidth_cyc_per_byte: float = 0.12

    timeslice_cycles: float = 20_000_000.0  # ~8 ms at 2.6 GHz
    rebalance_slices: int = 8
    migrate_prob: float = 0.3  # chance a rebalance actually moves the thread
    #: Chance the OS re-places an unbound thread on wakeup instead of
    #: keeping it on its previous PU (CFS select-idle wake balancing).
    #: This is what makes lock-heavy unbound workloads (ORWL native)
    #: wander away from their first-touched data.
    wakeup_migrate_prob: float = 0.12
    context_switch_cycles: float = 260.0
    migration_cycles: float = 5_000.0
    os_jitter: float = 0.02  # relative duration noise on unbound threads

    def __post_init__(self) -> None:
        positive = (
            "cycles_per_flop",
            "ht_contention",
            "cache_line",
            "l3_hit_cycles",
            "mem_cycles_local",
            "mem_parallelism",
            "timeslice_cycles",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise SimulationError(f"{name} must be > 0")
        if not 0.0 <= self.stall_fraction <= 1.0:
            raise SimulationError("stall_fraction must be within [0, 1]")
        if self.rebalance_slices < 1:
            raise SimulationError("rebalance_slices must be >= 1")
        if not 0.0 <= self.migrate_prob <= 1.0:
            raise SimulationError("migrate_prob must be within [0, 1]")
        if not 0.0 <= self.wakeup_migrate_prob <= 1.0:
            raise SimulationError("wakeup_migrate_prob must be within [0, 1]")
        if self.ht_contention < 1.0:
            raise SimulationError("ht_contention must be >= 1 (slowdown)")
