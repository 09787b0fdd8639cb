"""TreeMatch — topology-aware process/thread placement (Algorithm 1).

Reimplements the TreeMatch algorithm of Jeannot, Mercier & Tessier (TPDS
2014) as adapted by the paper: bottom-up grouping of communicating threads
along the topology-tree arities, matrix aggregation between levels, plus
the two ORWL-specific extensions — control-thread handling (line 1 of
Algorithm 1) and oversubscription via a virtual tree level (line 2).

Baseline strategies (``compact``, ``scatter``, ``spread`` …) used by the
paper's OpenMP/MKL comparisons live in :mod:`repro.treematch.strategies`.
"""

from repro.treematch.aggregate import aggregate_comm_matrix
from repro.treematch.commmatrix import CommunicationMatrix
from repro.treematch.control import ControlPlan
from repro.treematch.grouping import group_processes
from repro.treematch.maporder import child_distance_matrix, order_top_groups
from repro.treematch.bisect import split_k
from repro.treematch.coarsen import coarsen
from repro.treematch.mapping import Placement, multilevel_map, treematch_map
from repro.treematch.oversub import manage_oversubscription
from repro.treematch.strategies import (
    MULTILEVEL_CUTOVER,
    compact_placement,
    cores_close_placement,
    cores_spread_placement,
    mapping_strategy,
    scatter_placement,
)

__all__ = [
    "CommunicationMatrix",
    "group_processes",
    "aggregate_comm_matrix",
    "manage_oversubscription",
    "ControlPlan",
    "Placement",
    "treematch_map",
    "multilevel_map",
    "mapping_strategy",
    "MULTILEVEL_CUTOVER",
    "coarsen",
    "split_k",
    "child_distance_matrix",
    "order_top_groups",
    "compact_placement",
    "scatter_placement",
    "cores_close_placement",
    "cores_spread_placement",
]
