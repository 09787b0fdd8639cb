"""ASCII rendering of topologies and placements.

``render_ascii`` is an lstopo-style tree dump; ``render_mapping``
reproduces the flavour of Fig. 2 of the paper — for each blade/socket,
the cores with the task labels placed on them.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.errors import TopologyError
from repro.topology.objects import ObjType, TopoObject
from repro.topology.tree import Topology
from repro.util.units import format_size

__all__ = ["render_ascii", "render_mapping"]


def _label(obj: TopoObject) -> str:
    if obj.type is ObjType.MACHINE:
        return f"Machine ({obj.name})" if obj.name else "Machine"
    if obj.type is ObjType.PU:
        return f"PU P#{obj.os_index}"
    if obj.type.is_cache and obj.cache is not None:
        return f"{obj.type.value} ({format_size(obj.cache.size)})"
    if obj.type is ObjType.NUMANODE and "memory" in obj.attrs:
        return (
            f"NUMANode L#{obj.logical_index} "
            f"({format_size(obj.attrs['memory'])})"
        )
    if obj.name:
        return f"{obj.type.value} {obj.name!r}"
    return f"{obj.type.value} L#{obj.logical_index}"


def render_ascii(topology: Topology, *, max_depth: int | None = None) -> str:
    """Indented tree dump of the topology, lstopo-style."""
    if max_depth is not None and max_depth < 0:
        raise TopologyError(f"max_depth must be >= 0, got {max_depth}")
    lines: list[str] = []

    def visit(obj: TopoObject, indent: int) -> None:
        if max_depth is not None and indent > max_depth:
            return
        lines.append("  " * indent + _label(obj))
        for child in obj.children:
            visit(child, indent + 1)

    visit(topology.root, 0)
    return "\n".join(lines)


def render_mapping(
    topology: Topology,
    placement: Mapping[int, int],
    thread_names: Mapping[int, str] | None = None,
    *,
    reserved: Mapping[int, str] | None = None,
) -> str:
    """Fig. 2-style placement rendering.

    *placement* maps thread id → PU os-index. *thread_names* supplies the
    task labels of Fig. 2 (e.g. ``"gmm split"``); *reserved* marks PUs set
    aside for other purposes (control threads) with a note.
    """
    names = thread_names or {}
    notes = reserved or {}
    by_pu: dict[int, list[int]] = {}
    for tid, pu in placement.items():
        by_pu.setdefault(pu, []).append(tid)

    lines: list[str] = [f"Machine {topology.name}"]
    sockets = topology.sockets or topology.numa_nodes
    for socket in sockets:
        blade = socket.ancestor_of_type(ObjType.GROUP)
        prefix = f"{blade.name} / " if blade is not None and blade.name else ""
        lines.append(f"  {prefix}Socket L#{socket.logical_index} "
                     f"[PUs {socket.cpuset.to_list()}]")
        for core in (o for o in socket.descendants() if o.type is ObjType.CORE):
            for pu in core.leaves():
                tags: list[str] = []
                for tid in sorted(by_pu.get(pu.os_index, [])):
                    label = names.get(tid, "")
                    tags.append(f"{tid}:{label}" if label else str(tid))
                if pu.os_index in notes:
                    tags.append(f"<{notes[pu.os_index]}>")
                body = "  ".join(tags) if tags else "-"
                lines.append(f"    PU P#{pu.os_index:<3} {body}")
    return "\n".join(lines)
