"""Multilevel coarsening: heavy-edge matching over CSR affinity graphs.

The scalable mapping path (ISSUE 7 / *Shared-Memory Hierarchical Process
Mapping*, Schulz & Woydt) never runs a grouping engine on the full
million-task matrix. Instead it collapses the affinity graph level by
level — each level merges matched pairs of heavily-communicating
vertices into one coarse vertex — until the graph is small enough to
partition with the dense engines, then projects the partition back up.

Everything here works on a plain CSR triple ``(indptr, indices, data)``
so the module needs no scipy: a dense array or a ``scipy.sparse`` matrix
is converted on entry (:func:`csr_parts`). Matrices must be symmetric,
finite and non-negative affinity views (what
``CommunicationMatrix.affinity_any`` returns); :func:`coarsen` checks
that with :func:`check_affinity`.

Matching is the classic sorted-edge greedy: visit undirected edges by
descending weight (ties broken by endpoint indices, so results are
deterministic), match both endpoints when still free. Unmatched vertices
— isolated threads, or leftovers of odd components — carry over as
singletons. Coarse vertex ids are canonical: numbered by each merged
pair's smallest fine index, independent of match discovery order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MappingError
from repro.treematch.commmatrix import check_affinity

try:  # pragma: no cover - optional dependency
    from scipy import sparse as _sp
except ImportError:  # pragma: no cover
    _sp = None

__all__ = [
    "CoarseLevel",
    "csr_parts",
    "parts_to_dense",
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
    if _sp is not None and _sp.issparse(matrix):
        csr = _sp.csr_array(matrix)
        csr.sum_duplicates()
        csr.sort_indices()
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


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    """The row of every stored entry of a CSR matrix."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def parts_to_dense(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, n: int
) -> np.ndarray:
    """Densify a CSR triple (for the small coarse levels only)."""
    out = np.zeros((n, n))
    out[_row_ids(indptr), indices] = data
    return out


def take_submatrix(matrix, idx: np.ndarray):
    """Rows+columns of *matrix* restricted to *idx*, same backend."""
    ia = np.asarray(idx, dtype=np.intp)
    if _sp is not None and _sp.issparse(matrix):
        return matrix[ia][:, ia]
    return matrix[np.ix_(ia, ia)]


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
    """
    rows = _row_ids(indptr)
    upper = indices > rows
    # Canonical rows list the upper-triangle edges in (i, j) order
    # already, so one stable sort by weight gives the (-w, i, j) order.
    order = np.argsort(-data[upper], kind="stable")
    # The match loop is the hot O(|E|) core of every coarsening level —
    # plain-list indexing, no per-edge allocations (see hotlint).
    ei = rows[upper][order].tolist()
    ej = indices[upper][order].tolist()
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


def coarsen(
    matrix,
    *,
    target: int,
    max_levels: int = 64,
    min_shrink: float = 0.95,
) -> list[CoarseLevel]:
    """Build the coarsening hierarchy of *matrix* down to ~*target* vertices.

    Stops when the level order reaches *target*, when a matching fails
    to shrink the graph below ``min_shrink`` of its size (edge-free
    graphs stall immediately), or after *max_levels*. Returns the levels
    finest-first; the caller partitions the last one and projects back
    through ``coarse_of``. A *matrix* that :func:`check_affinity`
    rejects raises :class:`~repro.errors.MappingError`.
    """
    if target < 1:
        raise MappingError(f"coarsening target must be >= 1, got {target}")
    check_affinity(matrix)
    indptr, indices, data, n = csr_parts(matrix)
    levels = [CoarseLevel(indptr, indices, data, n,
                          np.ones(n, dtype=np.int64))]
    while levels[-1].n > target and len(levels) < max_levels:
        cur = levels[-1]
        coarse_of, n_c = heavy_edge_matching(
            cur.indptr, cur.indices, cur.data, cur.n
        )
        if n_c >= cur.n * min_shrink:
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
