"""``AggregateComMatrix`` — collapse an affinity matrix onto groups.

After grouping at a tree level, the next level up sees each group as one
entity; the aggregated matrix entry ``[gi, gj]`` is the total affinity
between the members of group *gi* and group *gj*.

Accepts either a dense array or a ``scipy.sparse`` matrix; the result is
always a (small) dense ``k × k`` array — ``k`` is a tree arity or a
subtree count, never large.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sp

from repro.errors import MappingError
from repro.treematch.commmatrix import _check_dense, _check_entries

__all__ = ["aggregate_comm_matrix", "group_assignment"]


def group_assignment(groups: list[list[int]], p: int) -> np.ndarray:
    """Validated member→group index array for an exact cover of ``0..p-1``."""
    flat = np.fromiter(
        (i for g in groups for i in g), dtype=np.int64,
        count=sum(len(g) for g in groups),
    )
    if flat.size and (flat.min() < 0 or flat.max() >= p):
        bad = flat[(flat < 0) | (flat >= p)][0]
        raise MappingError(f"group member {bad} outside order {p}")
    counts = np.bincount(flat, minlength=p) if flat.size else np.zeros(p, int)
    if (counts > 1).any():
        dup = int(np.flatnonzero(counts > 1)[0])
        raise MappingError(f"process {dup} appears in two groups")
    if flat.size != p:
        raise MappingError(f"groups cover {flat.size} of {p} processes")
    asg = np.empty(p, dtype=np.intp)
    pos = 0
    for gi, g in enumerate(groups):
        asg[pos : pos + len(g)] = gi
        pos += len(g)
    out = np.empty(p, dtype=np.intp)
    out[flat] = asg
    return out


def aggregate_comm_matrix(m, groups: list[list[int]]) -> np.ndarray:
    """Aggregate *m* over *groups*; returns a ``k × k`` dense matrix.

    Every process index must appear in exactly one group. *m* must be
    square, finite and non-negative (:class:`MappingError` otherwise; a
    sparse *m* is checked over its stored entries) but need not be
    symmetric: entry ``[gi, gj]``, ``gi < gj``, sums ``m[i, j]`` over
    ``i`` in *gi* and ``j`` in *gj* and is mirrored. The dense path is a
    single ``G.T @ m @ G`` product with the group indicator matrix ``G``
    (then the diagonal zeroed and the upper triangle mirrored, matching
    the loop reference). The sparse path scatters the stored entries
    onto group pairs with one ``bincount`` — O(nnz) instead of O(n²).
    It sums each pair in stored-entry order where the dense path follows
    the BLAS build's order: the totals are equal whenever the partial
    sums are exact, as on integer weights, and equal up to rounding on
    others.
    """
    k = len(groups)
    if _sp.issparse(m):
        p = m.shape[0]
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise MappingError(
                f"affinity matrix must be square 2-D, got shape {m.shape}"
            )
        coo = m.tocoo()
        _check_entries(coo.data, name="affinity matrix")
        asg = group_assignment(groups, p)
        gi = asg[coo.row]
        gj = asg[coo.col]
        upper = gi < gj
        # Entries with group(row) < group(col) are exactly the terms of
        # the dense reference's upper triangle of G.T @ m @ G; the
        # mirrored stored entries (group(row) > group(col)) are the same
        # pairs seen from the other side and must not be added twice.
        # Each bin sums its entries in stored order.
        out = np.bincount(gi[upper] * k + gj[upper], weights=coo.data[upper],
                          minlength=k * k).reshape(k, k)
        iu, ju = np.triu_indices(k, 1)
        out[ju, iu] = out[iu, ju]
        return out

    a = _check_dense(m, name="affinity matrix")
    p = a.shape[0]
    asg_of = group_assignment(groups, p)
    indicator = np.zeros((p, k))
    indicator[np.arange(p), asg_of] = 1.0
    out = indicator.T @ a @ indicator
    upper = np.triu(out, 1)
    return upper + upper.T
