"""Topology (de)serialization to plain dicts (JSON-compatible).

This is the analogue of hwloc's XML export: it lets experiments record
exactly which machine description produced a result, and lets tests
round-trip topologies.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import TopologyError
from repro.topology.objects import CacheAttrs, ObjType, TopoObject
from repro.topology.tree import Topology

__all__ = [
    "topology_to_dict",
    "topology_from_dict",
    "save_topology",
    "load_topology",
]

FORMAT_VERSION = 1


def _obj_to_dict(obj: TopoObject) -> dict[str, Any]:
    d: dict[str, Any] = {"type": obj.type.value}
    if obj.os_index >= 0:
        d["os_index"] = obj.os_index
    if obj.name:
        d["name"] = obj.name
    if obj.attrs:
        d["attrs"] = dict(obj.attrs)
    if obj.cache is not None:
        d["cache"] = {
            "size": obj.cache.size,
            "line": obj.cache.line,
            "associativity": obj.cache.associativity,
        }
    if obj.children:
        d["children"] = [_obj_to_dict(c) for c in obj.children]
    return d


def topology_to_dict(topology: Topology) -> dict[str, Any]:
    """Serialize to a JSON-compatible dict (inverse of
    :func:`topology_from_dict`)."""
    return {
        "format": FORMAT_VERSION,
        "name": topology.name,
        "root": _obj_to_dict(topology.root),
    }


def _obj_from_dict(d: Any, where: str = "root") -> TopoObject:
    """Rebuild the object record *d*; *where* names it in errors."""
    if not isinstance(d, dict):
        raise TopologyError(f"{where}: object record must be a JSON object, "
                            f"got {type(d).__name__}")
    try:
        obj_type = ObjType(d["type"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TopologyError(
            f"{where}: bad object type {d.get('type')!r}"
        ) from exc
    for key, kind, json_kind in (
        ("cache", dict, "object"), ("attrs", dict, "object"),
        ("children", list, "array"),
    ):
        if key in d and not isinstance(d[key], kind):
            raise TopologyError(
                f"{where}: {key!r} of this {obj_type.value} must be a JSON "
                f"{json_kind}, got {type(d[key]).__name__}"
            )
    try:
        cache = None
        if "cache" in d:
            c = d["cache"]
            cache = CacheAttrs(
                size=int(c["size"]),
                line=int(c.get("line", 64)),
                associativity=int(c.get("associativity", 8)),
            )
        obj = TopoObject(
            obj_type,
            os_index=int(d.get("os_index", -1)),
            name=str(d.get("name", "")),
            attrs=dict(d.get("attrs", {})),
            cache=cache,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: int() of an Infinity, which json accepts.
        raise TopologyError(
            f"{where}: bad {obj_type.value} record: {exc!r}"
        ) from exc
    for i, child_d in enumerate(d.get("children", [])):
        obj.add_child(_obj_from_dict(child_d, f"{where}.children[{i}]"))
    return obj


def save_topology(topology: Topology, path: str | Path) -> None:
    """Write the topology as JSON (the hwloc XML-export analogue)."""
    Path(path).write_text(json.dumps(topology_to_dict(topology), indent=1))


def load_topology(path: str | Path) -> Topology:
    """Read a topology JSON file written by :func:`save_topology`."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise TopologyError(f"cannot load topology from {path}: {exc}") from exc
    return topology_from_dict(data)


def topology_from_dict(data: dict[str, Any]) -> Topology:
    """Rebuild a finalized topology from :func:`topology_to_dict` output.

    Malformed records raise :class:`TopologyError` naming the record.
    """
    if not isinstance(data, dict):
        raise TopologyError(
            f"topology record must be a JSON object, got {type(data).__name__}"
        )
    if data.get("format") != FORMAT_VERSION:
        raise TopologyError(f"unsupported topology format {data.get('format')!r}")
    if "root" not in data:
        raise TopologyError("missing 'root' record")
    root = _obj_from_dict(data["root"])
    return Topology(root, name=str(data.get("name", "machine")))
