"""NUMA memory model: buffers, first-touch homing, distance-priced misses.

Every simulated allocation is a :class:`Buffer`. Its *home* NUMA node is
fixed by the first thread that touches it (Linux first-touch policy) —
this is what makes the OpenMP master-allocates pattern a NUMA hotspot and
what lets bound ORWL tasks keep their locations local.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SimulationError
from repro.sim.params import CostModel
from repro.topology.distance import LOCAL_DISTANCE, numa_distance_matrix
from repro.topology.tree import Topology

__all__ = ["Buffer", "MemorySystem"]

#: topology -> (pu→numa map, distance matrix). Topology presets are
#: memoized module-level singletons, so a per-topology cache turns the
#: O(tree) walks into one-time costs across the thousands of machines an
#: experiment sweep constructs. WeakKey so ad-hoc test topologies die.
_NUMA_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

#: (topology, model) -> precomputed per-(accessor, home) miss-cost rows.
_MISS_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _numa_tables(topology: Topology):
    try:
        return _NUMA_TABLES[topology]
    except KeyError:
        pass
    distance = numa_distance_matrix(topology)
    distance.setflags(write=False)
    pu_numa: dict[int, int] = {}
    for numa_idx, numa in enumerate(topology.numa_nodes):
        for pu in numa.leaves():
            pu_numa[pu.os_index] = numa_idx
    tables = (pu_numa, distance)
    _NUMA_TABLES[topology] = tables
    return tables


@dataclass(slots=True, eq=False)
class Buffer:
    """A simulated allocation.

    ``home_numa`` is ``None`` until first touch. ``data`` optionally holds
    a real numpy array when the application runs in data-execution mode;
    the simulator itself never reads it.
    """

    buf_id: int
    size: int
    label: str = ""
    home_numa: int | None = None
    data: Any = None
    meta: dict = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Buffer #{self.buf_id} {self.label!r} {self.size}B "
            f"home={self.home_numa}>"
        )


class MemorySystem:
    """Prices cache-line fetches from DRAM according to NUMA distance."""

    def __init__(self, topology: Topology, model: CostModel) -> None:
        self.topology = topology
        self.model = model
        self._pu_numa, self.distance = _numa_tables(topology)
        self._buffers: list[Buffer] = []
        self._node_free_at: dict[int, float] = {
            i: 0.0 for i in range(self.distance.shape[0])
        }
        if not self._pu_numa:
            raise SimulationError("topology has no NUMA-homed PUs")
        # Precomputed per-(accessor, home) miss cost — the formula below
        # is pure in (distance, model), and CacheSystem.touch consults it
        # on every priced access, so pay the O(n_numa²) cost once per
        # (topology, model) pair. The batched core gathers whole rows of
        # this table at once when pricing a quantum batch.
        per_model = _MISS_TABLES.setdefault(topology, {})
        try:
            self._miss_cost = per_model[model]
        except KeyError:
            n_numa = self.distance.shape[0]
            self._miss_cost = [
                [self._compute_miss_cycles(a, h) for h in range(n_numa)]
                for a in range(n_numa)
            ]
            per_model[model] = self._miss_cost

    # -- allocation ----------------------------------------------------------

    def allocate(
        self,
        size: int,
        label: str = "",
        *,
        home_numa: int | None = None,
        data: Any = None,
    ) -> Buffer:
        """Create a buffer. ``home_numa`` pre-homes it (bypass first touch)."""
        if size <= 0:
            raise SimulationError(f"buffer size must be positive, got {size}")
        n_numa = self.distance.shape[0]
        if home_numa is not None and not 0 <= home_numa < n_numa:
            raise SimulationError(f"home_numa {home_numa} outside [0, {n_numa})")
        buf = Buffer(len(self._buffers), int(size), label, home_numa, data)
        self._buffers.append(buf)
        return buf

    @property
    def buffers(self) -> list[Buffer]:
        return list(self._buffers)

    @property
    def pu_numa_map(self) -> dict[int, int]:
        """PU os-index → NUMA logical index (shared, treat as read-only)."""
        return self._pu_numa

    @property
    def miss_cost_table(self) -> list[list[float]]:
        """Precomputed ``miss_cycles_per_line`` rows (treat as read-only)."""
        return self._miss_cost

    def pu_numa_list(self) -> list[int | None]:
        """PU→NUMA map flattened to a dense list (``None`` for holes).

        OS indices are small and dense on every supported topology, and a
        list index is the cheapest lookup the batched core's pump can make.
        A fresh list per call — callers bind it to a local for one run.
        """
        flat: list[int | None] = [None] * (max(self._pu_numa) + 1)
        for k, v in self._pu_numa.items():
            flat[k] = v
        return flat

    def free_at_list(self) -> list[float]:
        """Node bandwidth horizons as a dense list snapshot.

        The batched core accumulates FIFO reservations into this snapshot
        during a run and write it back via :meth:`store_free_at` on exit,
        keeping the node-keyed dict authoritative between runs/windows.
        """
        d = self._node_free_at
        return [d[i] for i in range(len(d))]

    def store_free_at(self, free_at: list[float]) -> None:
        """Write a :meth:`free_at_list` snapshot back (run/window exit)."""
        d = self._node_free_at
        for i in range(len(free_at)):
            d[i] = free_at[i]

    # -- placement queries -----------------------------------------------------

    def numa_of_pu(self, pu: int) -> int:
        try:
            return self._pu_numa[pu]
        except KeyError:
            raise SimulationError(f"unknown PU {pu}") from None

    def first_touch(self, buf: Buffer, pu: int) -> int:
        """Home *buf* on the toucher's node if not yet homed; return home."""
        if buf.home_numa is None:
            buf.home_numa = self.numa_of_pu(pu)
        return buf.home_numa

    # -- cost ---------------------------------------------------------------------

    def _compute_miss_cycles(self, accessor_numa: int, home_numa: int) -> float:
        d = float(self.distance[accessor_numa, home_numa])
        latency = self.model.mem_cycles_local * (d / LOCAL_DISTANCE)
        if accessor_numa != home_numa:
            latency += self.model.interconnect_cycles_per_byte * self.model.cache_line
        return latency / self.model.mem_parallelism

    def miss_cycles_per_line(self, accessor_numa: int, home_numa: int) -> float:
        """Cycles to fetch one cache line of a missed buffer.

        Local misses pay DRAM latency divided by memory-level parallelism;
        remote misses scale by SLIT distance and add an interconnect
        bandwidth term per byte. Served from the table precomputed at
        construction.
        """
        return self._miss_cost[accessor_numa][home_numa]

    def is_remote(self, accessor_numa: int, home_numa: int) -> bool:
        return accessor_numa != home_numa

    # -- memory-controller contention -------------------------------------------

    def reserve_bandwidth(
        self, home_numa: int, miss_bytes: float, now: float
    ) -> float:
        """Reserve FIFO service for *miss_bytes* at *home_numa*'s controller.

        Returns the absolute cycle time at which the node will have
        delivered these bytes. The controller serves at
        ``node_bandwidth_cyc_per_byte`` regardless of how many threads
        pull from it, so aggregate throughput to one node is hard-capped —
        a thread's touch completes no earlier than this horizon.
        """
        if miss_bytes <= 0:
            return now
        service = miss_bytes * self.model.node_bandwidth_cyc_per_byte
        start = max(now, self._node_free_at[home_numa])
        end = start + service
        self._node_free_at[home_numa] = end
        return end

    def node_free_at(self, home_numa: int) -> float:
        return self._node_free_at[home_numa]
