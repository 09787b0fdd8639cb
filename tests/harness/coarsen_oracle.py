"""Differential oracle for heavy-edge matching and coarsest-level bisection.

The functions here are the matching and recursive-bisection code as it
stood before both were rewritten to cost time and memory in proportion
to the coarse graph's edges:

* :func:`heavy_edge_matching` orders edges with a three-key
  ``np.lexsort`` and numbers coarse vertices with ``np.unique``;
* :func:`partition_weighted` bisects a dense coarsest matrix, copying
  each side's submatrix with ``np.ix_``, and :func:`grow_side` seeds at
  the largest ``sub.sum(axis=1)`` and grows with ``attract += sub[v]``.

Their logic is kept unchanged as the reference the library versions
must agree with, vertex for vertex.
"""

from __future__ import annotations

import numpy as np

__all__ = ["heavy_edge_matching", "grow_side", "partition_weighted"]


def heavy_edge_matching(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, n: int
) -> tuple[np.ndarray, int]:
    """Greedy matching by descending edge weight, lexsorted."""
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    upper = indices > rows
    er = rows[upper]
    ec = indices[upper]
    ew = data[upper]
    order = np.lexsort((ec, er, -ew))
    ei = er[order].tolist()
    ej = ec[order].tolist()
    partner = [-1] * n
    taken = bytearray(n)
    e = len(ei)
    k = 0
    while k < e:
        i = ei[k]
        j = ej[k]
        k += 1
        if taken[i] or taken[j]:
            continue
        taken[i] = 1
        taken[j] = 1
        partner[i] = j
        partner[j] = i
    part = np.asarray(partner, dtype=np.int64)
    own = np.arange(n, dtype=np.int64)
    rep = np.where(part >= 0, np.minimum(own, part), own)
    uniq, coarse_of = np.unique(rep, return_inverse=True)
    return coarse_of.astype(np.intp), int(uniq.size)


def grow_side(sub: np.ndarray, wloc: np.ndarray, target: int) -> np.ndarray:
    """Boolean mask of one bisection side, grown on the dense submatrix."""
    nloc = sub.shape[0]
    in_a = np.zeros(nloc, dtype=bool)
    seed = int(sub.sum(axis=1).argmax())
    in_a[seed] = True
    attract = sub[seed].copy()
    attract[seed] = -np.inf
    wa = int(wloc[seed])
    count = 1
    while wa < target and count < nloc - 1:
        v = int(attract.argmax())
        in_a[v] = True
        attract += sub[v]
        attract[v] = -np.inf
        wa += int(wloc[v])
        count += 1
    return in_a


def partition_weighted(
    m: np.ndarray, weights: np.ndarray, k: int, per_part: int
) -> np.ndarray:
    """Recursive bisection of the dense coarsest graph."""
    n = m.shape[0]
    asg = np.full(n, -1, dtype=np.intp)
    next_part = 0

    def rec(idx: np.ndarray, kk: int) -> None:
        nonlocal next_part
        if kk == 1 or idx.size <= 1:
            asg[idx] = next_part
            next_part += kk
            return
        k1 = (kk + 1) // 2
        sub = m[np.ix_(idx, idx)]
        side = grow_side(sub, weights[idx], per_part * k1)
        rec(idx[side], k1)
        rec(idx[~side], kk - k1)

    rec(np.arange(n), k)
    return asg
