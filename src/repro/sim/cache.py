"""L3-centric cache model with LRU residency and write invalidation.

The model tracks, per L3 (one per socket on both testbeds), how many bytes
of each buffer are resident. A :meth:`CacheSystem.touch` splits an access
into hit and miss bytes, prices them, installs the touched bytes (evicting
LRU), and on writes invalidates the buffer in every *other* L3 — the
coherence traffic that makes cross-socket producer/consumer expensive and
shared-L3 pipelines cheap, i.e. exactly the effect the paper's placement
exploits.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.sim.counters import Counters
from repro.sim.memory import Buffer, MemorySystem
from repro.sim.params import CostModel
from repro.topology.objects import ObjType
from repro.topology.tree import Topology

__all__ = ["L3State", "CacheSystem", "TouchResult"]

#: topology -> (l3 capacities, pu→l3-index map); see memory._NUMA_TABLES.
_L3_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _l3_tables(topology: Topology):
    try:
        return _L3_TABLES[topology]
    except KeyError:
        pass
    l3_objs = topology.objects_by_type(ObjType.L3)
    capacities = tuple(obj.cache.size for obj in l3_objs)
    pu_l3: dict[int, int] = {}
    for idx, obj in enumerate(l3_objs):
        for pu in obj.leaves():
            pu_l3[pu.os_index] = idx
    tables = (capacities, pu_l3)
    _L3_TABLES[topology] = tables
    return tables


@dataclass(frozen=True, slots=True)
class TouchResult:
    """Priced access: hit/miss cycle split plus the buffer's home node.

    The miss portion is what memory-controller contention scales; hits are
    served by the local L3 and are contention-free.
    """

    hit_cycles: float
    miss_cycles: float
    miss_bytes: float
    home_numa: int

    @property
    def cycles(self) -> float:
        return self.hit_cycles + self.miss_cycles


class L3State:
    """Residency bookkeeping for one last-level cache.

    When wired into a :class:`CacheSystem`, every L3 shares one
    *presence* map (buffer id → set of L3 indices holding any entry for
    it). Write invalidation then visits only the caches that actually
    hold the buffer instead of broadcasting over every L3 of the machine
    — on the 12-socket testbeds that turns 11 no-op invalidations per
    written touch into typically zero.
    """

    __slots__ = ("capacity", "used", "index", "presence", "_resident")

    def __init__(
        self,
        capacity: int,
        index: int = 0,
        presence: dict[int, set[int]] | None = None,
    ) -> None:
        if capacity <= 0:
            raise SimulationError("L3 capacity must be positive")
        self.capacity = capacity
        self.used = 0
        self.index = index
        self.presence = presence if presence is not None else {}
        # Plain dict as LRU: insertion order is the recency order
        # (pop+reinsert moves to the tail, next(iter()) is the LRU head)
        # — same semantics as OrderedDict with cheaper constant factors
        # on the pump's hot pop/reinsert sequence.
        self._resident: dict[int, float] = {}

    def resident_bytes(self, buf_id: int) -> float:
        return self._resident.get(buf_id, 0.0)

    def install(self, buf_id: int, nbytes: float) -> None:
        """Make *nbytes* of the buffer resident (LRU eviction as needed)."""
        nbytes = min(nbytes, self.capacity)
        current = self._resident.pop(buf_id, 0.0)
        self.used -= current
        target = min(max(current, nbytes), self.capacity)
        presence = self.presence
        while self.used + target > self.capacity and self._resident:
            evicted_id = next(iter(self._resident))
            evicted = self._resident.pop(evicted_id)
            self.used -= evicted
            present = presence.get(evicted_id)
            if present is not None:
                present.discard(self.index)
        if self.used + target > self.capacity:
            target = self.capacity - self.used
        self._resident[buf_id] = target
        self.used += target
        presence.setdefault(buf_id, set()).add(self.index)

    def touch_lru(self, buf_id: int) -> None:
        resident = self._resident
        cur = resident.pop(buf_id, None)
        if cur is not None:
            resident[buf_id] = cur

    def invalidate(self, buf_id: int) -> None:
        dropped = self._resident.pop(buf_id, None)
        if dropped is not None:
            self.used -= dropped
            present = self.presence.get(buf_id)
            if present is not None:
                present.discard(self.index)

    def flush(self) -> None:
        presence = self.presence
        for buf_id in self._resident:
            present = presence.get(buf_id)
            if present is not None:
                present.discard(self.index)
        self._resident.clear()
        self.used = 0


class CacheSystem:
    """All L3s of the machine plus the touch-pricing logic.

    :meth:`touch` is called for every simulated memory access; the
    constructor therefore flattens everything the pricing needs —
    per-(accessor, home) miss-cost rows, the PU→NUMA and PU→L3 maps, and
    the scalar model constants — into plain attributes so the hot path
    performs only dict/list lookups and float arithmetic.
    """

    __slots__ = (
        "topology", "model", "memory", "_l3s", "_pu_l3", "_pu_numa",
        "_presence", "_miss_cost", "_line", "_l3_hit_cycles",
        "_stall_fraction", "_write_invalidate",
    )

    def __init__(
        self, topology: Topology, model: CostModel, memory: MemorySystem
    ) -> None:
        self.topology = topology
        self.model = model
        self.memory = memory
        capacities, pu_l3 = _l3_tables(topology)
        if not capacities:
            raise SimulationError("topology has no L3 caches")
        self._presence: dict[int, set[int]] = {}
        self._l3s = [
            L3State(size, idx, self._presence)
            for idx, size in enumerate(capacities)
        ]
        self._pu_l3 = pu_l3
        # Hot-path caches: shared maps/tables plus scalar model constants.
        self._pu_numa = memory.pu_numa_map
        self._miss_cost = memory.miss_cost_table
        self._line = float(model.cache_line)
        self._l3_hit_cycles = model.l3_hit_cycles
        self._stall_fraction = model.stall_fraction
        self._write_invalidate = model.write_invalidate

    def pu_l3_list(self) -> list[int | None]:
        """PU→L3 map flattened to a dense list (``None`` for holes).

        Same rationale as :meth:`MemorySystem.pu_numa_list`: the batched
        core indexes this with raw os indices inside the pump.
        """
        flat: list[int | None] = [None] * (max(self._pu_l3) + 1)
        for k, v in self._pu_l3.items():
            flat[k] = v
        return flat

    def l3_index_of_pu(self, pu: int) -> int:
        try:
            return self._pu_l3[pu]
        except KeyError:
            raise SimulationError(f"PU {pu} is not under any L3") from None

    def l3_of_pu(self, pu: int) -> L3State:
        return self._l3s[self.l3_index_of_pu(pu)]

    def flush_all(self) -> None:
        for l3 in self._l3s:
            l3.flush()

    # -- the core pricing call --------------------------------------------------

    def touch(
        self,
        pu: int,
        buf: Buffer,
        nbytes: float,
        *,
        write: bool,
        counters: Counters,
    ) -> TouchResult:
        """Price an access of *nbytes* of *buf* from *pu*.

        Updates residency, performs first-touch homing, and accumulates the
        L3-miss / stall / traffic counters.
        """
        if nbytes <= 0:
            home = self.memory.first_touch(buf, pu)
            return TouchResult(0.0, 0.0, 0.0, home)
        nbytes = min(float(nbytes), float(buf.size))
        line = self._line
        try:
            l3_idx = self._pu_l3[pu]
            accessor_numa = self._pu_numa[pu]
        except KeyError:
            raise SimulationError(f"PU {pu} is not under any L3") from None
        l3 = self._l3s[l3_idx]
        home = buf.home_numa
        if home is None:
            home = self.memory.first_touch(buf, pu)

        # Fractional residency: with R of the buffer's S bytes resident,
        # a touch of n bytes hits on n·R/S of them. This avoids aliasing
        # different chunks of one large shared buffer (distinct threads
        # touching distinct slices must not hit on each other's lines)
        # while still giving full reuse for buffers that fit entirely.
        resident = l3.resident_bytes(buf.buf_id)
        hit_fraction = min(1.0, resident / float(buf.size))
        hit_bytes = nbytes * hit_fraction
        miss_bytes = nbytes - hit_bytes
        lines_hit = hit_bytes / line
        lines_miss = miss_bytes / line

        miss_per_line = self._miss_cost[accessor_numa][home]
        hit_cycles = lines_hit * self._l3_hit_cycles
        miss_cycles = lines_miss * miss_per_line
        cycles = hit_cycles + miss_cycles
        result = TouchResult(hit_cycles, miss_cycles, miss_bytes, home)

        counters.l3_hits += lines_hit
        counters.l3_misses += lines_miss
        counters.stalled_cycles += miss_cycles * self._stall_fraction
        counters.memory_cycles += cycles
        counters.bytes_touched += nbytes
        if accessor_numa != home:
            counters.remote_bytes += miss_bytes

        if nbytes > l3.capacity:
            # Streaming a working set larger than the cache self-evicts:
            # by the time the stream wraps around, its head is gone, so a
            # cyclic re-touch gets no reuse (classic LRU worst case).
            l3.invalidate(buf.buf_id)
        else:
            l3.install(buf.buf_id, min(resident + miss_bytes, float(buf.size)))
            l3.touch_lru(buf.buf_id)
        if write and self._write_invalidate:
            present = self._presence.get(buf.buf_id)
            if present and (len(present) > 1 or l3_idx not in present):
                l3s = self._l3s
                for idx in sorted(present):
                    if idx != l3_idx:
                        l3s[idx].invalidate(buf.buf_id)
        return result
