"""Differential oracle for ``OSScheduler.place``.

:class:`ListScanScheduler` is the list-scan placement the scheduler used
before it kept per-NUMA-node free masks: every query materialises the
candidate PUs and scans them. Its logic is kept unchanged as the
reference the mask-based :class:`repro.sim.scheduler.OSScheduler` must
agree with, decision for decision and rng draw for rng draw.

:func:`drive` pushes one seeded-random sequence of ``occupy`` /
``release`` / ``place`` calls through both and raises ``AssertionError``
at the first call where the chosen PU or the generator state differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from repro.errors import SimulationError
from repro.sim.memory import MemorySystem
from repro.sim.params import CostModel
from repro.sim.process import SimThread
from repro.sim.scheduler import OSScheduler
from repro.topology import fig2_machine
from repro.topology.serialize import topology_from_dict, topology_to_dict
from repro.topology.tree import Topology
from repro.util.bitmap import Bitmap
from repro.util.rng import make_rng

__all__ = ["ListScanScheduler", "DriveStats", "drive", "skewed_machine"]


class ListScanScheduler:
    """The list-scan scheduler: same policies, O(PUs) per placement."""

    def __init__(self, topology: Topology, memory: MemorySystem, *,
                 policy: str, rng=None, migrate_prob: float = 0.0,
                 wakeup_migrate_prob: float = 0.0) -> None:
        self.policy = policy
        self.memory = memory
        self._rng = rng
        self.migrate_prob = migrate_prob
        self.wakeup_migrate_prob = wakeup_migrate_prob
        self._all_pus = [pu.os_index for pu in topology.pus]
        self._busy: dict[int, SimThread | None] = {p: None for p in self._all_pus}
        self._node_load: dict[int, int] = {
            i: 0 for i in range(len(topology.numa_nodes))
        }

    def occupy(self, pu: int, thread: SimThread) -> None:
        if self._busy[pu] is not None:
            raise SimulationError(f"PU {pu} already busy")
        self._busy[pu] = thread
        self._node_load[self.memory.pu_numa_map[pu]] += 1

    def release(self, pu: int) -> None:
        if self._busy[pu] is None:
            raise SimulationError(f"PU {pu} is not busy")
        self._busy[pu] = None
        self._node_load[self.memory.pu_numa_map[pu]] -= 1

    @property
    def free_pus(self) -> list[int]:
        return [p for p in self._all_pus if self._busy[p] is None]

    def place(self, thread: SimThread, *, rebalance: bool = False) -> int | None:
        if thread.cpuset is not None:
            last = thread.last_pu
            if (
                not rebalance
                and last is not None
                and self._busy.get(last) is None
                and last in thread.cpuset
            ):
                return last
            candidates = [p for p in thread.cpuset if self._busy.get(p) is None]
        else:
            candidates = self.free_pus
        if not candidates:
            return None
        if not rebalance and thread.last_pu in candidates:
            if (
                thread.cpuset is None
                and self._rng is not None
                and self.wakeup_migrate_prob > 0.0
                and self._rng.random() < self.wakeup_migrate_prob
            ):
                pass  # fall through to the policy choice below
            else:
                return thread.last_pu
        if thread.cpuset is not None:
            return candidates[0]
        if thread.last_pu is None and self.policy == "consolidate":
            first_node = min(
                self.memory.numa_of_pu(p) for p in candidates
            )
            near = [
                p for p in candidates if self.memory.numa_of_pu(p) == first_node
            ]
            return min(near)
        if (
            rebalance
            and self._rng is not None
            and self.migrate_prob > 0.0
            and len(candidates) > 1
            and self._rng.random() < self.migrate_prob
        ):
            others = [p for p in candidates if p != thread.last_pu]
            return int(others[self._rng.integers(0, len(others))])
        if self.policy == "consolidate":
            return min(candidates)

        def node_key(p: int) -> tuple[int, int]:
            return (self._node_load[self.memory.numa_of_pu(p)], p)

        return min(candidates, key=node_key)


def _walk(obj: dict, kind: str):
    if obj["type"] == kind:
        yield obj
    for child in obj.get("children", ()):
        yield from _walk(child, kind)


def skewed_machine() -> Topology:
    """fig2_machine cut to NUMA nodes of 3, 8, 1 and 5 cores, with PU
    numbers dealt across the nodes (node 0 holds PUs 0, 7 and 14).

    The presets all have equal nodes numbered in contiguous blocks, where
    "fewest busy PUs" and "most free PUs", or "first node" and "lowest
    PU", cannot be told apart; this machine can.
    """
    data = topology_to_dict(fig2_machine())
    data["name"] = "skewed"

    def prune(obj: dict, budget: list[int]) -> None:
        kept = []
        for child in obj.get("children", ()):
            if sum(1 for _ in _walk(child, "Core")) != 1:
                prune(child, budget)
                kept.append(child)
            elif budget[0] > 0:
                kept.append(child)
                budget[0] -= 1
        obj["children"] = kept

    for node, cores in zip(_walk(data["root"], "NUMANode"), (3, 8, 1, 5)):
        prune(node, [cores])
    pus = list(_walk(data["root"], "PU"))
    for k, pu in enumerate(pus):
        pu["os_index"] = k * 7 % len(pus)  # 7 and 17 PUs are coprime
    return topology_from_dict(data)


@dataclass
class DriveStats:
    """What one :func:`drive` run compared (coverage, not results)."""

    decisions: int = 0
    none: int = 0
    saturated: int = 0  # unbound placements that found no free PU
    rebalanced: int = 0
    moved: int = 0
    by_cpuset: dict[str, int] = field(default_factory=dict)


def _cpusets(topology: Topology, rnd: Random) -> dict[str, list[Bitmap | None]]:
    """Thread cpusets by kind: unbound, singletons and multi-PU sets (whole
    NUMA nodes and random scatters)."""
    pus = [p.os_index for p in topology.pus]
    return {
        "unbound": [None],
        "single": [Bitmap.single(rnd.choice(pus)) for _ in range(6)],
        "multi": [numa.cpuset for numa in topology.numa_nodes] + [
            Bitmap(rnd.sample(pus, rnd.randint(2, 9))) for _ in range(6)
        ],
    }


def drive(
    topology: Topology,
    *,
    policy: str,
    migrate_prob: float,
    wakeup_migrate_prob: float,
    seed: int,
    steps: int,
) -> DriveStats:
    """Run one random occupy/release/place sequence through both schedulers.

    Occupancy drifts between empty and full in waves, so placements see
    idle, crowded and saturated machines. Every ``place`` gets a random
    ``last_pu`` (``None`` or any PU) and a random ``rebalance`` flag; while
    the machine is below its fill target a successful placement is
    occupied, like a dispatch.
    """
    memory = MemorySystem(topology, CostModel())
    knobs = dict(policy=policy, migrate_prob=migrate_prob,
                 wakeup_migrate_prob=wakeup_migrate_prob)
    new_rng, old_rng = make_rng(seed), make_rng(seed)
    new = OSScheduler(topology, memory, rng=new_rng, **knobs)
    old = ListScanScheduler(topology, memory, rng=old_rng, **knobs)
    rnd = Random(seed)
    pus = [p.os_index for p in topology.pus]
    population = _cpusets(topology, rnd)
    busy: list[int] = []
    stats = DriveStats()
    target = 0.0
    for step in range(steps):
        if step % 200 == 0:
            target = rnd.choice((0.0, 0.3, 0.7, 0.95, 1.0))
        fill = len(busy) / len(pus)
        if rnd.random() < 0.25:
            if fill < target or not busy:
                free = [p for p in pus if p not in busy]
                if free:
                    pu = rnd.choice(free)
                    occupant = SimThread(tid=step, name=f"o{step}", gen=iter(()))
                    new.occupy(pu, occupant)
                    old.occupy(pu, occupant)
                    busy.append(pu)
            else:
                pu = busy.pop(rnd.randrange(len(busy)))
                new.release(pu)
                old.release(pu)
            continue
        kind = rnd.choices(("unbound", "single", "multi"), (5, 2, 3))[0]
        cpuset = rnd.choice(population[kind])
        thread = SimThread(tid=step, name=f"t{step}", gen=iter(()), cpuset=cpuset)
        thread.last_pu = None if rnd.random() < 0.2 else rnd.choice(pus)
        rebalance = rnd.random() < 0.5
        got = new.place(thread, rebalance=rebalance)
        want = old.place(thread, rebalance=rebalance)
        assert got == want, (
            f"step {step}: place({kind} cpuset={cpuset!r}, "
            f"last_pu={thread.last_pu}, rebalance={rebalance}) "
            f"-> {got}, list scan -> {want}"
        )
        assert new_rng.bit_generator.state == old_rng.bit_generator.state, (
            f"step {step}: rng streams diverged after place({kind}, "
            f"last_pu={thread.last_pu}, rebalance={rebalance})"
        )
        stats.decisions += 1
        stats.by_cpuset[kind] = stats.by_cpuset.get(kind, 0) + 1
        stats.rebalanced += rebalance
        if got is None:
            stats.none += 1
            stats.saturated += cpuset is None
        else:
            stats.moved += got != thread.last_pu
            if fill < target:
                new.occupy(got, thread)
                old.occupy(got, thread)
                busy.append(got)
    return stats
