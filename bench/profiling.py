"""Roll a cProfile run up by source module of the program.

Self time and call counts of every function under ``src/repro`` are
summed per module (``sim.soa``, ``orwl.handle``, ``apps.video.ccl``,
...). Builtins and code outside the program are charged to the module
of their direct caller, using cProfile's per-caller split, so the call
counts stay exact; what no program function called directly (the
benchmark's own glue, deeper library internals) lands in ``other``.
cProfile adds a cost to every Python call, not to native code, so the
shares are skewed toward call-heavy modules: use them to find
candidates, and the untraced benchmark to measure.
"""

from __future__ import annotations

import pstats
from collections import defaultdict
from pathlib import Path

__all__ = ["rollup", "module_of"]

_PKG = Path(__file__).resolve().parent.parent / "src" / "repro"


def module_of(filename: str) -> str | None:
    """Dotted module of *filename* relative to the ``repro`` package,
    or None outside it (builtins report ``~``)."""
    try:
        rel = Path(filename).resolve().relative_to(_PKG)
    except (ValueError, OSError):
        return None
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) or "repro"


def rollup(profile) -> dict[str, dict]:
    """``{module: {"self_s", "calls"}}`` from a disabled cProfile.Profile."""
    out: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    for (filename, _, _), (_, ncalls, tottime, _, callers) in pstats.Stats(profile).stats.items():
        mod = module_of(filename)
        if mod is not None:
            out[mod]["self_s"] += tottime
            out[mod]["calls"] += ncalls
            continue
        if not callers:
            out["other"]["self_s"] += tottime
            out["other"]["calls"] += ncalls
        for (cfile, _, _), (_, cnc, ctt, _) in callers.items():
            slot = out[module_of(cfile) or "other"]
            slot["self_s"] += ctt
            slot["calls"] += cnc
    return dict(out)
