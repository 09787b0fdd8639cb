"""Differential oracle for ``Placement.cost`` and ``Placement.slit_cost``.

The functions here are the two placement objectives as they stood
before their index arrays were built vectorized:

* :func:`cost` fills the PU-pair tree-distance matrix with one
  ``Topology.common_ancestor_depth`` call per pair of used PUs;
* :func:`slit_cost` looks up the NUMA node of every bound PU in a dict;
* both gather each bound thread's metric row through per-thread dict
  lookups.

The weighted sum itself is the library's, so the library versions must
return the same float, ``==``, for every placement: half the sum over
the dense affinity's row blocks, and on a CSR matrix the sum over its
own stored entries ``m[i, j]``, ``i != j``, in stored order.

With ``half_sum=True`` both objectives are instead the half-sum over
the symmetrized affinity on either backend, the CSR one built by
:func:`sym_zero_diag_coo`: the reference the stored-entry sum must
equal whenever its partial sums are exact (integer weights), and come
within rounding of otherwise.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from repro.topology.distance import numa_distance_matrix

__all__ = ["cost", "slit_cost", "sym_zero_diag_coo"]


def sym_zero_diag_coo(m):
    """``m + m.T`` without its diagonal, through a COO round trip: the
    CSR affinity builder as it stood before it masked the sum's stored
    entries in place."""
    s = (m + m.T).tocoo()
    keep = s.row != s.col
    return sp.csr_array(
        (s.data[keep], (s.row[keep], s.col[keep])), shape=s.shape
    )


def _pairwise_cost(placement, comm, pu_metric: dict, metric_matrix, *,
                   half_sum: bool) -> float:
    tids = np.asarray(
        sorted(t for t in placement.thread_to_pu if 0 <= t < comm.order),
        dtype=np.intp,
    )
    if tids.size < 2:
        return 0.0
    midx = np.asarray(
        [pu_metric[placement.thread_to_pu[int(t)]] for t in tids],
        dtype=np.intp,
    )
    if comm.is_sparse and not half_sum:
        coo = comm.tocsr().tocoo()
        slot_of = dict(zip(tids.tolist(), midx.tolist()))
        sr = np.array([slot_of.get(i, -1) for i in coo.row.tolist()],
                      dtype=np.intp)
        sc = np.array([slot_of.get(j, -1) for j in coo.col.tolist()],
                      dtype=np.intp)
        ok = (sr >= 0) & (sc >= 0) & (coo.row != coo.col)
        return float((coo.data[ok] * metric_matrix[sr[ok], sc[ok]]).sum())
    if comm.is_sparse:
        coo = sym_zero_diag_coo(comm.tocsr()).tocoo()
        pos = np.full(comm.order, -1, dtype=np.int64)
        pos[tids] = np.arange(tids.size)
        pr = pos[coo.row]
        pc = pos[coo.col]
        ok = (pr >= 0) & (pc >= 0)
        total = float(
            (coo.data[ok] * metric_matrix[midx[pr[ok]], midx[pc[ok]]]).sum()
        )
        return total / 2.0
    aff = comm.affinity()
    total = 0.0
    block = 1024
    for start in range(0, tids.size, block):
        stop = min(start + block, tids.size)
        sub = aff[np.ix_(tids[start:stop], tids)]
        total += float(
            (sub * metric_matrix[np.ix_(midx[start:stop], midx)]).sum()
        )
    return total / 2.0


def slit_cost(placement, topology, comm, *, half_sum: bool = False) -> float:
    """SLIT-weighted traffic, NUMA node looked up per bound PU."""
    dist = numa_distance_matrix(topology)
    node_of: dict[int, int] = {}
    for pu in set(placement.thread_to_pu.values()):
        numa = topology.numa_of_pu(pu)
        node_of[pu] = numa.logical_index if numa is not None else 0
    return _pairwise_cost(placement, comm, node_of, dist, half_sum=half_sum)


def cost(placement, topology, comm, *, half_sum: bool = False) -> float:
    """Tree-distance-weighted traffic, one ancestor walk per PU pair."""
    max_depth = topology.tree_depth - 1
    used = sorted({
        pu for t, pu in placement.thread_to_pu.items() if 0 <= t < comm.order
    })
    nd = len(used)
    dmat = np.zeros((nd, nd))
    for a in range(nd):
        for b in range(a + 1, nd):
            d = max_depth - topology.common_ancestor_depth(used[a], used[b])
            dmat[a, b] = dmat[b, a] = d
    slot_of = {pu: i for i, pu in enumerate(used)}
    return _pairwise_cost(placement, comm, slot_of, dmat, half_sum=half_sum)
