"""Baseline placement strategies.

These reproduce the affinity interfaces the paper compares against
(Section II / VI): Intel ``KMP_AFFINITY=compact|scatter`` and OpenMP 4.5
``OMP_PLACES=cores`` with ``OMP_PROC_BIND=close|spread``. None of them look
at the communication matrix — that blindness is exactly what the paper
criticizes.
"""

from __future__ import annotations

from math import ceil

from repro.errors import MappingError
from repro.topology.objects import ObjType, TopoObject
from repro.topology.tree import Topology
from repro.treematch.mapping import Placement

__all__ = [
    "compact_placement",
    "scatter_placement",
    "cores_close_placement",
    "cores_spread_placement",
    "mapping_strategy",
    "MAPPING_STRATEGIES",
    "MULTILEVEL_CUTOVER",
]

#: ``strategy="auto"`` switches from the bottom-up greedy+refine engine
#: to the multilevel engine above this task count. Every grow step of
#: the bottom-up greedy's first level is an argmax over all p columns,
#: so that level costs O(p²): on 2 CPUs without numba, a relabelled
#: 10⁵-task stencil or ring takes 12.6–13.2 s in
#: ``treematch_map(refine=False)`` and 0.7–1.5 s in the multilevel
#: engine. At 4,096 tasks the bottom-up map takes 1.1 s
#: (BENCH_sim.json ``full_map``).
MULTILEVEL_CUTOVER = 8192

#: Affinity-aware mapping engines selectable by name.
MAPPING_STRATEGIES = ("auto", "greedy", "multilevel")


def _check_n(
    topology: Topology,
    n_threads: int,
    capacity: int,
    *,
    oversubscribe: bool = False,
) -> int:
    """Validate the thread count; return the oversubscription factor."""
    if n_threads <= 0:
        raise MappingError(f"n_threads must be positive, got {n_threads}")
    if n_threads <= capacity:
        return 1
    if not oversubscribe:
        raise MappingError(
            f"{n_threads} threads exceed capacity {capacity} of {topology.name}"
        )
    return ceil(n_threads / capacity)


def _placement(
    topology: Topology,
    order: list[TopoObject],
    n: int,
    factor: int,
) -> Placement:
    # Threads wrap around the leaf order when oversubscribed, mirroring
    # how the affinity-blind baselines behave on an overcommitted node.
    width = len(order)
    return Placement(
        thread_to_pu={i: order[i % width].os_index for i in range(n)},
        control_mode="os",
        granularity="pu",
        oversub_factor=factor,
        topology_name=topology.name,
        groups_per_level=(),
    )


def compact_placement(
    topology: Topology, n_threads: int, *, oversubscribe: bool = False
) -> Placement:
    """``KMP_AFFINITY=compact``: fill PUs in os order — hyperthread
    siblings first, then the next core, then the next socket."""
    pus = [pu for core in topology.cores for pu in core.leaves()]
    factor = _check_n(topology, n_threads, len(pus),
                      oversubscribe=oversubscribe)
    return _placement(topology, pus, n_threads, factor)


def scatter_placement(
    topology: Topology, n_threads: int, *, oversubscribe: bool = False
) -> Placement:
    """``KMP_AFFINITY=scatter``: distribute as evenly as possible across
    sockets, then across cores, using hyperthread siblings last."""
    sockets = topology.sockets or topology.numa_nodes
    # Round-robin: sibling index varies slowest, then core rank, then socket.
    per_socket_cores = [
        [o for o in s.descendants() if o.type is ObjType.CORE] for s in sockets
    ]
    max_cores = max(len(cs) for cs in per_socket_cores)
    max_sibs = max(len(c.leaves()) for cs in per_socket_cores for c in cs)
    order: list[TopoObject] = []
    for sib in range(max_sibs):
        for core_rank in range(max_cores):
            for cores in per_socket_cores:
                if core_rank < len(cores):
                    leaves = cores[core_rank].leaves()
                    if sib < len(leaves):
                        order.append(leaves[sib])
    factor = _check_n(topology, n_threads, len(order),
                      oversubscribe=oversubscribe)
    return _placement(topology, order, n_threads, factor)


def cores_close_placement(
    topology: Topology, n_threads: int, *, oversubscribe: bool = False
) -> Placement:
    """``OMP_PLACES=cores`` + ``OMP_PROC_BIND=close``: one thread per core,
    cores in machine order (hyperthread siblings left idle)."""
    order = [core.children[0] for core in topology.cores]
    factor = _check_n(topology, n_threads, len(order),
                      oversubscribe=oversubscribe)
    return _placement(topology, order, n_threads, factor)


def cores_spread_placement(
    topology: Topology, n_threads: int, *, oversubscribe: bool = False
) -> Placement:
    """``OMP_PLACES=cores`` + ``OMP_PROC_BIND=spread``: one thread per core,
    cores round-robined across sockets."""
    sockets = topology.sockets or topology.numa_nodes
    per_socket_cores = [
        [o for o in s.descendants() if o.type is ObjType.CORE] for s in sockets
    ]
    max_cores = max(len(cs) for cs in per_socket_cores)
    order = [
        cores[rank].children[0]
        for rank in range(max_cores)
        for cores in per_socket_cores
        if rank < len(cores)
    ]
    factor = _check_n(topology, n_threads, len(order),
                      oversubscribe=oversubscribe)
    return _placement(topology, order, n_threads, factor)


def mapping_strategy(name: str, n_tasks: int) -> str:
    """Resolve a mapping-strategy name to a concrete engine.

    ``"auto"`` picks ``"multilevel"`` above :data:`MULTILEVEL_CUTOVER`
    tasks and ``"greedy"`` (the bottom-up group+refine pipeline of
    ``treematch_map``) otherwise.
    """
    if name not in MAPPING_STRATEGIES:
        raise MappingError(
            f"unknown mapping strategy {name!r}; known: "
            f"{', '.join(MAPPING_STRATEGIES)}"
        )
    if name == "auto":
        return "multilevel" if n_tasks > MULTILEVEL_CUTOVER else "greedy"
    return name
