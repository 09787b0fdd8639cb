"""Multilevel coarsening: heavy-edge matching over CSR affinity graphs.

The scalable mapping path (ISSUE 7 / *Shared-Memory Hierarchical Process
Mapping*, Schulz & Woydt) never runs a grouping engine on the full
million-task matrix. Instead it collapses the affinity graph level by
level — each level merges matched pairs of heavily-communicating
vertices into one coarse vertex — until the graph is small enough to
partition with the dense engines, then projects the partition back up.

Everything here works on a plain CSR triple ``(indptr, indices, data)``:
a dense array or a ``scipy.sparse`` matrix is converted on entry
(:func:`csr_parts`). Matrices must be symmetric,
finite and non-negative affinity views (what
``CommunicationMatrix.affinity_any`` returns); :func:`coarsen` checks
that with :func:`check_affinity`.

Matching is the classic sorted-edge greedy: visit undirected edges by
descending weight (ties broken by endpoint indices, so results are
deterministic), match both endpoints when still free. It runs in
vectorized rounds of locally dominant edges first and finishes in a
sequential loop (see :func:`heavy_edge_matching`). Unmatched vertices
— isolated threads, or leftovers of odd components — carry over as
singletons. Coarse vertex ids are canonical: numbered by each merged
pair's smallest fine index, independent of match discovery order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse as _sp

from repro.errors import MappingError
from repro.treematch.commmatrix import _canonical_csr, _row_ids, check_affinity

__all__ = [
    "CoarseLevel",
    "csr_parts",
    "take_submatrix",
    "heavy_edge_matching",
    "coarsen_matrix",
    "coarsen",
]


@dataclass
class CoarseLevel:
    """One level of the coarsening hierarchy (finest first).

    ``coarse_of[v]`` is the vertex of the *next* (coarser) level that
    fine vertex ``v`` merged into — ``None`` on the coarsest level.
    ``weights[v]`` counts the original (finest-level) tasks collapsed
    into ``v``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n: int
    weights: np.ndarray
    coarse_of: np.ndarray | None = None


def csr_parts(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``(indptr, indices, data, n)`` of a dense array or sparse matrix.

    Rows are returned with sorted column indices; the input is not
    modified.
    """
    if _sp.issparse(matrix):
        csr = _canonical_csr(matrix)
        return (
            np.asarray(csr.indptr, dtype=np.int64),
            np.asarray(csr.indices, dtype=np.int64),
            np.asarray(csr.data, dtype=np.float64),
            csr.shape[0],
        )
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise MappingError(f"affinity matrix must be square, got {m.shape}")
    rows, cols = np.nonzero(m)
    counts = np.bincount(rows, minlength=m.shape[0])
    indptr = np.zeros(m.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, cols.astype(np.int64), m[rows, cols], m.shape[0]


def _spans(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One gather of the CSR spans of *rows* (non-empty), in the order given.

    Returns ``(at, idx)``: entry ``idx[e]`` of the matrix belongs to
    ``rows[at[e]]``. Span ``r`` starts at ``indptr[rows[r]]`` and sits
    at ``ends[r] - lens[r]`` of the gather.
    """
    lens = indptr[rows + 1] - indptr[rows]
    ends = np.cumsum(lens)
    at = np.repeat(np.arange(rows.size), lens)
    return at, np.arange(ends[-1]) + np.repeat(indptr[rows] - (ends - lens), lens)


def _take_parts(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows and columns *idx* of a canonical CSR, in one gather.

    New vertex ``t`` is old vertex ``idx[t]``; the entries of *idx* must
    be distinct (:class:`MappingError` otherwise). The result is
    canonical: a sorted *idx* keeps every row's column order, any other
    order is re-sorted row by row.
    """
    m = idx.size
    new_id = np.full(indptr.size - 1, -1, dtype=np.int64)
    new_id[idx] = np.arange(m)
    if (new_id[idx] != np.arange(m)).any():
        raise MappingError("submatrix indices repeat a vertex")
    indptr2 = np.zeros(m + 1, dtype=np.int64)
    if m == 0:
        return indptr2, indices[:0], data[:0]
    at, span = _spans(indptr, idx)
    cols = new_id[indices[span]]
    keep = cols >= 0
    at, cols, vals = at[keep], cols[keep], data[span[keep]]
    if (idx[1:] < idx[:-1]).any():
        # at is already sorted; order each row's columns.
        order = np.argsort(at * m + cols)
        cols, vals = cols[order], vals[order]
    np.cumsum(np.bincount(at, minlength=m), out=indptr2[1:])
    return indptr2, cols, vals


def take_submatrix(matrix, idx: np.ndarray):
    """Rows+columns of *matrix* restricted to *idx*, same backend.

    A sparse *matrix* gives a canonical CSR of its class, built by
    :func:`_take_parts` from the stored entries of the *idx* rows, with
    *matrix*'s index dtype.
    """
    ia = np.asarray(idx, dtype=np.intp)
    if _sp.issparse(matrix):
        csr = _canonical_csr(matrix)
        ip, ix, dv = _take_parts(csr.indptr, csr.indices, csr.data, ia)
        cls = _sp.csr_matrix if _sp.isspmatrix(matrix) else _sp.csr_array
        itype = csr.indices.dtype
        return cls(
            (dv, ix.astype(itype), ip.astype(itype)), shape=(ia.size, ia.size)
        )
    return matrix[np.ix_(ia, ia)]


#: A matching round resolves the edges it matches and the edges it drops
#: because they touch a vertex it matched; once a round resolves less
#: than this share of its edges, the survivors go to the sequential
#: loop. A round costs about ten numpy passes over the remaining edges
#: (~20 ns per edge), the loop ~200 ns per edge with its list
#: conversion. Total matching time on 2 CPUs over the 347 matchings of
#: a seed-1 ``map`` benchmark pass, the 261 of naturally numbered 10^5
#: stencils and rings and six random 5*10^4-vertex graphs: 1.13 s with
#: the loop alone; 0.67, 0.64 and 0.69 s switching below 1/8, 1/4 and
#: 1/2; 0.74 s switching when a round *matched* under 1/8 of its edges,
#: since a permuted stencil's first round matches 6% of its edges and
#: resolves 43%.
ROUND_MIN_SHARE = 0.25


def heavy_edge_matching(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, n: int
) -> tuple[np.ndarray, int]:
    """Greedy matching by descending edge weight.

    The input must be canonical CSR: every row's column indices sorted
    and free of duplicates, as :func:`csr_parts` and
    :func:`coarsen_matrix` return them. Returns ``(coarse_of,
    n_coarse)``: a fine→coarse vertex map and the coarse vertex count.
    Deterministic: edges are visited in ``(-weight, i, j)`` order and
    coarse ids follow the smallest fine index of each merged pair.

    The greedy runs in rounds. An edge is *locally dominant* when it
    comes first in the visiting order among the remaining edges at both
    of its endpoints; the sequential greedy matches every such edge and
    no other edge at those endpoints. So a round matches all locally
    dominant edges at once and drops the edges that touch a matched
    vertex, leaving the greedy's choices on the survivors unchanged.
    Some graphs resolve few edges per round — a natural-label ring of
    equal weights matches one edge per round — so once a round resolves
    less than :data:`ROUND_MIN_SHARE` of its edges, the survivors, still
    in visiting order, finish in the sequential loop.
    """
    rows = _row_ids(indptr)
    upper = np.flatnonzero(indices > rows)
    # Canonical rows list the upper-triangle edges in (i, j) order
    # already, so one stable sort by weight gives the (-w, i, j) order.
    upper = upper[np.argsort(-data[upper], kind="stable")]
    ei = rows[upper]
    ej = indices[upper]
    partner = np.full(n, -1, dtype=np.int64)
    first = np.empty(n, dtype=np.int64)
    while ei.size:
        e = ei.size
        rank = np.arange(e)
        # Every vertex's first remaining edge in the visiting order.
        first.fill(e)
        np.minimum.at(first, ei, rank)
        np.minimum.at(first, ej, rank)
        dominant = (first[ei] == rank) & (first[ej] == rank)
        mi = ei[dominant]
        mj = ej[dominant]
        partner[mi] = mj
        partner[mj] = mi
        free = (partner[ei] < 0) & (partner[ej] < 0)
        ei = ei[free]
        ej = ej[free]
        if e - ei.size < ROUND_MIN_SHARE * e:
            break
    if ei.size:
        # The sequential loop: plain-list indexing, no per-edge
        # allocations (see hotlint). No survivor touches a vertex that a
        # round matched, so every vertex starts free.
        li = ei.tolist()
        lj = ej.tolist()
        m = len(li)
        taken = bytearray(n)
        won = bytearray(m)
        k = 0
        while k < m:
            i = li[k]
            j = lj[k]
            if not (taken[i] or taken[j]):
                taken[i] = 1
                taken[j] = 1
                won[k] = 1
            k += 1
        hit = np.frombuffer(won, dtype=bool)
        partner[ei[hit]] = ej[hit]
        partner[ej[hit]] = ei[hit]
    own = np.arange(n, dtype=np.int64)
    rep = np.where(partner >= 0, np.minimum(own, partner), own)
    # A vertex represents its coarse vertex when it is unmatched or the
    # smaller end of its pair; coarse ids count representatives in order.
    is_rep = rep == own
    coarse_id = np.cumsum(is_rep) - 1
    return coarse_id[rep].astype(np.intp), int(is_rep.sum())


def coarsen_matrix(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    n: int,
    coarse_of: np.ndarray,
    n_coarse: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse a CSR affinity onto the coarse vertices.

    Edge weights between distinct coarse vertices accumulate; intra-pair
    (diagonal) weight is dropped, keeping the zero-diagonal invariant.
    Output rows are canonical (sorted, duplicate-free).
    """
    rows = _row_ids(indptr)
    nr = coarse_of[rows]
    nc = coarse_of[indices]
    keep = nr != nc
    keys = nr[keep] * np.int64(n_coarse) + nc[keep]
    uniq, inv = np.unique(keys, return_inverse=True)
    sums = np.bincount(inv, weights=data[keep], minlength=uniq.size)
    rows2 = (uniq // n_coarse).astype(np.int64)
    cols2 = (uniq % n_coarse).astype(np.int64)
    counts = np.bincount(rows2, minlength=n_coarse)
    indptr2 = np.zeros(n_coarse + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr2[1:])
    return indptr2, cols2, sums.astype(np.float64)


#: :func:`coarsen` stops when a matching keeps at least this share of
#: the vertices (edge-free graphs stall immediately) ...
_MIN_SHRINK = 0.95
#: ... or once it holds this many levels.
_MAX_LEVELS = 64


def coarsen(matrix, *, target: int) -> list[CoarseLevel]:
    """Build the coarsening hierarchy of *matrix* down to ~*target* vertices.

    Stops when the level order reaches *target*, when a matching fails
    to shrink the graph below :data:`_MIN_SHRINK` of its size, or after
    :data:`_MAX_LEVELS` levels. Returns the levels finest-first; the
    caller partitions the last one and projects back through
    ``coarse_of``. A *matrix* that :func:`check_affinity`
    rejects raises :class:`~repro.errors.MappingError`.
    """
    if target < 1:
        raise MappingError(f"coarsening target must be >= 1, got {target}")
    indptr, indices, data, n = csr_parts(check_affinity(matrix))
    levels = [CoarseLevel(indptr, indices, data, n,
                          np.ones(n, dtype=np.int64))]
    while levels[-1].n > target and len(levels) < _MAX_LEVELS:
        cur = levels[-1]
        coarse_of, n_c = heavy_edge_matching(
            cur.indptr, cur.indices, cur.data, cur.n
        )
        if n_c >= cur.n * _MIN_SHRINK:
            break
        indptr2, indices2, data2 = coarsen_matrix(
            cur.indptr, cur.indices, cur.data, cur.n, coarse_of, n_c
        )
        cur.coarse_of = coarse_of
        weights2 = np.bincount(
            coarse_of, weights=cur.weights, minlength=n_c
        ).astype(np.int64)
        levels.append(CoarseLevel(indptr2, indices2, data2, n_c, weights2))
    return levels
