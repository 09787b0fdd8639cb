"""Discrete-event multicore/NUMA machine simulator.

This is the substitute for the paper's physical testbeds (see DESIGN.md):
a virtual machine built from a :class:`~repro.topology.tree.Topology`, with

* per-PU execution of *simulated threads* (Python generators yielding ops),
* an L3-centric cache model with coherence invalidations,
* a first-touch NUMA memory model priced by the SLIT distance matrix,
* hyperthread contention on shared physical cores,
* two OS scheduler policies ("consolidate" ≈ Linux 3.10, "spread" ≈
  Linux 2.6.32) for unbound threads, with timeslice rebalancing,
* the four hardware/software counters reported by the paper's Tables
  II–IV: L3 misses, stalled cycles, context switches, CPU migrations,
* native observability on both run-loop cores: a metrics registry and a
  sampled ring trace (see :mod:`repro.sim.observe`).

Virtual time is counted in cycles and reported in seconds through the
machine's clock rate.
"""

from repro.sim.counters import Counters
from repro.sim.engine import Engine
from repro.sim.machine import SimMachine
from repro.sim.observe import MetricsRegistry, RingTrace, SimObserver
from repro.sim.params import CostModel
from repro.sim.process import (
    Compute,
    SimEvent,
    Spawn,
    Touch,
    Wait,
    YieldCPU,
)

__all__ = [
    "CostModel",
    "Counters",
    "Engine",
    "SimMachine",
    "Compute",
    "Touch",
    "Wait",
    "Spawn",
    "YieldCPU",
    "SimEvent",
    "MetricsRegistry",
    "RingTrace",
    "SimObserver",
]
