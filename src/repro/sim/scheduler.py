"""OS scheduler models for the simulated machine.

Bound threads (a cpuset from the affinity module or a baseline strategy)
only ever run inside their cpuset — zero migrations for singleton sets,
like a real `pthread_setaffinity`. Unbound threads are placed by one of
two policies reproducing the behaviours the paper observed on its
testbeds (Sec. VI-B.1):

``consolidate`` (Linux 3.10 / SMP12E5)
    prefer the lowest-numbered free PU — packs threads onto few NUMA
    nodes *including hyperthread siblings*.
``spread`` (Linux 2.6.32 / SMP20E7)
    prefer a free PU on the NUMA node currently running the fewest
    threads — spreads work over all nodes regardless of affinity.

Unbound threads are also periodically *rebalanced*: every
``rebalance_slices`` quanta their placement is recomputed from scratch,
which is what generates CPU migrations (and the cache-cold penalties that
follow them) in the native, non-affinity runs.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from repro.errors import SimulationError
from repro.sim.memory import MemorySystem
from repro.sim.process import SimThread
from repro.topology.tree import Topology

__all__ = ["OSScheduler"]


class OSScheduler:
    """Chooses a PU for each ready thread; tracks free PUs per node."""

    POLICIES = ("consolidate", "spread")

    def __init__(
        self,
        topology: Topology,
        memory: MemorySystem,
        *,
        policy: str | None = None,
        rng=None,
        migrate_prob: float = 0.0,
        wakeup_migrate_prob: float = 0.0,
    ) -> None:
        policy = policy or str(topology.root.attrs.get("os_policy", "consolidate"))
        if policy not in self.POLICIES:
            raise SimulationError(
                f"unknown OS policy {policy!r}; known: {self.POLICIES}"
            )
        self.policy = policy
        self.topology = topology
        self.memory = memory
        self._rng = rng
        self.migrate_prob = migrate_prob
        self.wakeup_migrate_prob = wakeup_migrate_prob
        self._all_pus = [pu.os_index for pu in topology.pus]
        #: Observers called as ``hook(pu, thread)`` on every occupation —
        #: lets the dynamic analyzer watch placements and migrations as
        #: they happen (see repro.analyze.dynamic). Served on both
        #: simulator cores: the object path calls the hooks from
        #: :meth:`occupy`, the batched core from its inlined start_on at
        #: the same point (busy map updated, transition not yet traced).
        self.on_place: list = []
        self._busy: dict[int, SimThread | None] = {p: None for p in self._all_pus}
        #: Int bitmasks per NUMA node (bit p = PU p): ``_node_pus`` all its
        #: PUs, ``_node_free`` the free ones — the flat cores flip those
        #: bits in place. A node's load is the popcount of the difference.
        self._node_pus = [0] * len(topology.numa_nodes)
        for pu, node in memory.pu_numa_map.items():
            self._node_pus[node] |= 1 << pu
        self._node_free = list(self._node_pus)

    # -- occupancy bookkeeping (machine calls these) -----------------------------

    def occupy(self, pu: int, thread: SimThread) -> None:
        if self._busy[pu] is not None:
            raise SimulationError(f"PU {pu} already busy")
        self._busy[pu] = thread
        self._node_free[self.memory.pu_numa_map[pu]] ^= 1 << pu
        # Guarded: occupy sits on the hot wakeup path, and the on_place
        # tap exists only for repro.analyze.dynamic runs.
        if self.on_place:
            for hook in self.on_place:
                hook(pu, thread)

    def release(self, pu: int) -> None:
        if self._busy[pu] is None:
            raise SimulationError(f"PU {pu} is not busy")
        self._busy[pu] = None
        self._node_free[self.memory.pu_numa_map[pu]] ^= 1 << pu

    def thread_on(self, pu: int) -> SimThread | None:
        return self._busy.get(pu)

    def is_free(self, pu: int) -> bool:
        return self._busy[pu] is None

    @property
    def free_pus(self) -> list[int]:
        return [p for p in self._all_pus if self._busy[p] is None]

    def compute_pressure(self, sibling_pus: dict[int, tuple[int, ...]]) -> list[int]:
        """Per-PU count of *compute* threads on hyperthread siblings.

        ``result[pu]`` is how many compute threads currently occupy PUs in
        ``sibling_pus[pu]`` — the table both flat cores maintain
        incrementally at occupy/release so the hyperthread-contention test
        is a single list index. This builds the starting snapshot from the
        busy map (placements at run entry, e.g. re-entering a window).
        """
        sib_compute = [0] * (max(self._busy) + 1)
        for pu_i, occupant in self._busy.items():
            if occupant is not None and occupant.kind == "compute":
                for sib in sibling_pus[pu_i]:
                    sib_compute[sib] += 1
        return sib_compute

    # -- placement ------------------------------------------------------------------

    def place(self, thread: SimThread, *, rebalance: bool = False) -> int | None:
        """Pick a PU for *thread*, or None when no allowed PU is free.

        Sticky by default (reuse ``last_pu`` when free); a *rebalance* call
        ignores stickiness and re-applies the policy, which may migrate the
        thread. Answered from the busy map and the per-node free masks.
        """
        last = thread.last_pu
        cpuset = thread.cpuset
        rng = self._rng
        if not rebalance and last is not None and self._busy[last] is None:
            if cpuset is not None:
                if last in cpuset:
                    return last
            # Sticky placement — except that the OS occasionally wake-
            # balances unbound threads onto the policy's preferred PU.
            elif rng is None or self.wakeup_migrate_prob <= 0.0 or \
                    rng.random() >= self.wakeup_migrate_prob:
                return last
        node_free = self._node_free
        if cpuset is not None:
            # Bound threads keep cpuset order (deterministic, no policy).
            free = cpuset.bits & reduce(or_, node_free)
            return (free & -free).bit_length() - 1 if free else None
        if not any(node_free):
            return None
        if last is None and self.policy == "consolidate":
            # Fork placement under the consolidating kernel (Linux 3.10):
            # a new thread starts near its parent (the main thread on
            # node 0) and is only balanced away later — which is why
            # native runs first-touch their data on the low nodes. The
            # old spreading kernel (2.6.32) distributes at fork already.
            for m in node_free:
                if m:
                    return (m & -m).bit_length() - 1
        if rebalance and rng is not None and self.migrate_prob > 0.0:
            free = reduce(or_, node_free)
            if free & (free - 1) and rng.random() < self.migrate_prob:
                # Model CFS load-balancing churn: a move to a random other
                # free PU (k-th in PU order), not the policy's first choice.
                if last is not None:
                    free &= ~(1 << last)
                for _ in range(rng.integers(0, free.bit_count())):
                    free &= free - 1
                return (free & -free).bit_length() - 1
        if self.policy == "consolidate":
            free = reduce(or_, node_free)
            return (free & -free).bit_length() - 1
        # spread: least-loaded NUMA node (fewest busy PUs), lowest free PU
        # in it; a node's lowest free bit orders like that PU's number.
        load_min = low_min = 0
        node_pus = self._node_pus
        for node in range(len(node_free)):
            free = node_free[node]
            if free:
                load = (node_pus[node] ^ free).bit_count()
                if not low_min or load < load_min or (
                    load == load_min and free & -free < low_min
                ):
                    load_min, low_min = load, free & -free
        return low_min.bit_length() - 1
