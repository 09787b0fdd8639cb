"""The :class:`Topology` wrapper — hwloc-like queries over the object tree.

A topology is *finalized* at construction: depths, logical indices and
cpusets are computed once, and convenience tables (PUs by os-index, cores,
NUMA nodes, per-level arities) are cached. TreeMatch consumes the
``level_arities`` view of the tree.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import TopologyError
from repro.topology.objects import ObjType, TopoObject
from repro.util.bitmap import Bitmap

__all__ = ["Topology"]


class Topology:
    """A finalized hardware topology tree rooted at a MACHINE object."""

    #: Largest PU number (``os_index``) a topology accepts, whether it
    #: comes from a JSON record or from :mod:`repro.topology.builder`.
    #: Cpusets are int bit fields, so PU number n costs n/8 bytes in the
    #: cpuset of every ancestor; an unchecked 2**63 exhausts memory.
    MAX_PU_OS_INDEX = (1 << 16) - 1

    def __init__(self, root: TopoObject, *, name: str = "machine") -> None:
        if root.type is not ObjType.MACHINE:
            raise TopologyError("topology root must be a Machine object")
        self.root = root
        self.name = name or "machine"
        self._finalize()

    # -- construction ------------------------------------------------------

    def _finalize(self) -> None:
        self._levels: list[list[TopoObject]] = []
        self._assign_depths()
        self._assign_indices_and_cpusets()
        self._pus: list[TopoObject] = [
            o for o in self.iter_objects() if o.type is ObjType.PU
        ]
        self._pus.sort(key=lambda o: o.os_index)
        self._pu_by_os: dict[int, TopoObject] = {p.os_index: p for p in self._pus}
        if len(self._pu_by_os) != len(self._pus):
            raise TopologyError("duplicate PU os_index")
        # Structure is frozen once finalized, so type queries can be
        # memoized — simulator/scheduler constructors call numa_nodes and
        # pus on every machine build, thousands of times per sweep.
        self._by_type: dict[ObjType, list[TopoObject]] = {}
        self._cores: list[TopoObject] = self.objects_by_type(ObjType.CORE)

    def _assign_depths(self) -> None:
        self.root.depth = 0
        level = [self.root]
        while level:
            self._levels.append(level)
            nxt: list[TopoObject] = []
            for node in level:
                for child in node.children:
                    child.depth = node.depth + 1
                    nxt.append(child)
            # A balanced tree is required: all leaves are PUs at equal depth.
            level = nxt
        for leaf in self.root.leaves():
            if leaf.type is not ObjType.PU:
                raise TopologyError(
                    f"topology leaf {leaf.type.value} is not a PU; "
                    "every branch must terminate in PUs"
                )
        leaf_depths = {leaf.depth for leaf in self.root.leaves()}
        if len(leaf_depths) > 1:
            raise TopologyError(f"unbalanced topology: PU depths {leaf_depths}")

    def _assign_indices_and_cpusets(self) -> None:
        counters: dict[ObjType, int] = {}
        for node in self.iter_objects():
            node.logical_index = counters.get(node.type, 0)
            counters[node.type] = node.logical_index + 1
            if node.type is ObjType.PU:
                if node.os_index < 0:
                    node.os_index = node.logical_index
                if node.os_index > self.MAX_PU_OS_INDEX:
                    raise TopologyError(
                        f"PU os_index {node.os_index} exceeds the largest "
                        f"supported PU number {self.MAX_PU_OS_INDEX}"
                    )
        # cpusets bottom-up
        for level in reversed(self._levels):
            for node in level:
                if node.type is ObjType.PU:
                    node.cpuset = Bitmap.single(node.os_index)
                else:
                    cs = Bitmap()
                    for child in node.children:
                        cs = cs | child.cpuset
                    node.cpuset = cs

    # -- traversal ----------------------------------------------------------

    def iter_objects(self) -> Iterator[TopoObject]:
        """Depth-first pre-order over the whole tree, root included."""
        yield self.root
        yield from self.root.descendants()

    @property
    def tree_depth(self) -> int:
        """Number of levels (root level counts as 1)."""
        return len(self._levels)

    def objects_at_depth(self, depth: int) -> list[TopoObject]:
        if not 0 <= depth < self.tree_depth:
            raise TopologyError(f"depth {depth} outside [0, {self.tree_depth})")
        return list(self._levels[depth])

    def objects_by_type(self, obj_type: ObjType) -> list[TopoObject]:
        try:
            cached = self._by_type[obj_type]
        except KeyError:
            cached = [o for o in self.iter_objects() if o.type is obj_type]
            self._by_type[obj_type] = cached
        return list(cached)

    # -- PU / core shortcuts -------------------------------------------------

    @property
    def pus(self) -> list[TopoObject]:
        """All PUs sorted by os_index."""
        return list(self._pus)

    @property
    def cores(self) -> list[TopoObject]:
        return list(self._cores)

    @property
    def n_pus(self) -> int:
        return len(self._pus)

    @property
    def n_cores(self) -> int:
        return len(self._cores)

    def pu(self, os_index: int) -> TopoObject:
        try:
            return self._pu_by_os[os_index]
        except KeyError:
            raise TopologyError(f"no PU with os_index {os_index}") from None

    def core_of_pu(self, os_index: int) -> TopoObject:
        pu = self.pu(os_index)
        core = pu.ancestor_of_type(ObjType.CORE)
        if core is None:
            raise TopologyError(f"PU {os_index} has no Core ancestor")
        return core

    def numa_of_pu(self, os_index: int) -> TopoObject | None:
        return self.pu(os_index).ancestor_of_type(ObjType.NUMANODE)

    def socket_of_pu(self, os_index: int) -> TopoObject | None:
        return self.pu(os_index).ancestor_of_type(ObjType.PACKAGE)

    def l3_of_pu(self, os_index: int) -> TopoObject | None:
        return self.pu(os_index).ancestor_of_type(ObjType.L3)

    def siblings_of_pu(self, os_index: int) -> list[TopoObject]:
        """Other PUs on the same core (hyperthread siblings)."""
        core = self.core_of_pu(os_index)
        return [p for p in core.leaves() if p.os_index != os_index]

    @property
    def has_hyperthreading(self) -> bool:
        return any(len(core.leaves()) > 1 for core in self._cores)

    @property
    def numa_nodes(self) -> list[TopoObject]:
        return self.objects_by_type(ObjType.NUMANODE)

    @property
    def sockets(self) -> list[TopoObject]:
        return self.objects_by_type(ObjType.PACKAGE)

    # -- TreeMatch view -------------------------------------------------------

    def level_arities(self) -> list[int]:
        """Arity of each level from the root downwards.

        Element ``i`` is the (uniform) number of children of every object at
        depth ``i``. TreeMatch requires this uniformity; a ragged level
        raises :class:`TopologyError`.
        """
        arities: list[int] = []
        for depth in range(self.tree_depth - 1):
            counts = {len(o.children) for o in self._levels[depth]}
            if len(counts) != 1:
                raise TopologyError(
                    f"ragged arity at depth {depth}: {sorted(counts)}"
                )
            arities.append(counts.pop())
        return arities

    def common_ancestor_depth(self, pu_a: int, pu_b: int) -> int:
        """Depth of the deepest common ancestor of two PUs (root = 0)."""
        a, b = self.pu(pu_a), self.pu(pu_b)
        chain_a = [a, *a.ancestors()]
        chain_b = {id(o) for o in [b, *b.ancestors()]}
        for node in chain_a:
            if id(node) in chain_b:
                return node.depth
        raise TopologyError("PUs share no ancestor — corrupt tree")

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Topology {self.name!r}: {len(self.numa_nodes)} NUMA, "
            f"{self.n_cores} cores, {self.n_pus} PUs>"
        )
