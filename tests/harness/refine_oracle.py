"""Differential oracle for ``refine_groups`` and ``_rebalance_exact``.

The functions here are the refinement and exact-rebalance code as it
stood before the gain evaluation was rewritten for memory locality:

* :func:`refine_groups` builds each sweep's gain matrix in 512-row
  blocks, gathering the ``delta[j, g_i]`` term through a strided
  transpose;
* :func:`attraction_rows` concatenates one ``np.arange`` per candidate
  vertex;
* :func:`rebalance_exact` runs every pass's move loop to the end of its
  candidate list, even after the total excess has reached zero;
* :func:`split_k_densified` is the multilevel ``split_k`` that densifies
  every coarse level it refines and refines it on the dense backend.

Their logic is kept unchanged as the reference the library versions
must agree with, group for group, swap for swap and move for move.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

__all__ = ["refine_groups", "attraction_rows", "rebalance_exact",
           "split_k_densified"]

_REFINE_BLOCK = 512


def refine_groups(
    m: np.ndarray,
    groups: list[list[int]],
    *,
    max_rounds: int = 4,
    stats: dict | None = None,
) -> list[list[int]]:
    """The 512-row-block pairwise-swap local search."""
    groups = [list(g) for g in groups]
    k = len(groups)
    if k < 2:
        return groups
    m = np.asarray(m, dtype=np.float64)
    p = m.shape[0]
    members = [i for g in groups for i in g]
    n = len(members)
    if n == p and sorted(members) == list(range(p)):
        sub = m
        local_of: np.ndarray | None = None
        asg = np.empty(n, dtype=np.intp)
        for gi, g in enumerate(groups):
            asg[np.asarray(g, dtype=np.intp)] = gi
    else:
        local_of = np.asarray(members, dtype=np.intp)
        sub = m[np.ix_(local_of, local_of)]
        asg = np.empty(n, dtype=np.intp)
        pos = 0
        for gi, g in enumerate(groups):
            asg[pos : pos + len(g)] = gi
            pos += len(g)

    indicator = np.zeros((n, k))
    indicator[np.arange(n), asg] = 1.0
    attraction = sub @ indicator

    rows = np.arange(n)
    sweeps = 0
    swaps = 0
    for _ in range(max(8 * max_rounds, 16)):
        sweeps += 1
        own = attraction[rows, asg]
        delta = attraction - own[:, None]
        best_gain = np.full(n, -np.inf)
        best_j = np.zeros(n, dtype=np.intp)
        for start in range(0, n, _REFINE_BLOCK):
            stop = min(start + _REFINE_BLOCK, n)
            blk = slice(start, stop)
            gain_blk = (
                delta[blk][:, asg] + delta[:, asg[blk]].T - 2.0 * sub[blk]
            )
            gain_blk[asg[blk, None] == asg[None, :]] = -np.inf
            arg = gain_blk.argmax(axis=1)
            best_j[blk] = arg
            best_gain[blk] = gain_blk[np.arange(stop - start), arg]

        order = np.argsort(-best_gain, kind="stable")
        touched = np.zeros(n, dtype=bool)
        improved = False
        for i in order:
            if best_gain[i] <= 1e-12:
                break
            i = int(i)
            j = int(best_j[i])
            if touched[i] or touched[j]:
                continue
            gi, gj = int(asg[i]), int(asg[j])
            if gi == gj:
                continue
            gain = (
                attraction[i, gj]
                + attraction[j, gi]
                - attraction[i, gi]
                - attraction[j, gj]
                - 2.0 * sub[i, j]
            )
            if gain <= 1e-12:
                continue
            attraction[:, gi] += sub[:, j] - sub[:, i]
            attraction[:, gj] += sub[:, i] - sub[:, j]
            asg[i], asg[j] = gj, gi
            touched[i] = touched[j] = True
            swaps += 1
            improved = True
        if not improved:
            break

    if stats is not None:
        stats["sweeps"] = stats.get("sweeps", 0) + sweeps
        stats["swaps"] = stats.get("swaps", 0) + swaps

    out: list[list[int]] = []
    for gi in range(k):
        local = np.flatnonzero(asg == gi)
        if local_of is None:
            out.append([int(x) for x in local])
        else:
            out.append([int(local_of[x]) for x in local])
    return out


def attraction_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    asg: np.ndarray,
    k: int,
    cand: np.ndarray,
) -> np.ndarray:
    """Attraction of each candidate vertex to every part, one span each."""
    nc = cand.size
    attr = np.zeros((nc, k))
    if nc == 0:
        return attr
    spans = [
        np.arange(indptr[v], indptr[v + 1]) for v in cand.tolist()
    ]
    idx = np.concatenate(spans) if spans else np.empty(0, dtype=np.int64)
    rows = np.repeat(np.arange(nc), indptr[cand + 1] - indptr[cand])
    np.add.at(attr, (rows, asg[indices[idx]]), data[idx])
    return attr


def rebalance_exact(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    asg: np.ndarray,
    k: int,
    size: int,
) -> np.ndarray:
    """Gain-ranked moves out of over-full parts, every list walked to its end."""
    loads = np.bincount(asg, minlength=k)
    while True:
        excess = loads - size
        over = np.flatnonzero(excess > 0)
        if over.size == 0:
            return asg
        under = np.flatnonzero(excess < 0)
        cand = np.flatnonzero(np.isin(asg, over))
        attr = attraction_rows(indptr, indices, data, asg, k, cand)
        to_under = attr[:, under]
        dest_pos = to_under.argmax(axis=1)
        best_dest = under[dest_pos]
        rows = np.arange(cand.size)
        gain = to_under[rows, dest_pos] - attr[rows, asg[cand]]
        order = np.argsort(-gain, kind="stable")
        moved = False
        for oi in order:
            v = int(cand[oi])
            src = int(asg[v])
            dst = int(best_dest[oi])
            if loads[src] <= size or loads[dst] >= size:
                continue
            asg[v] = dst
            loads[src] -= 1
            loads[dst] += 1
            moved = True
        if not moved:
            # Every preferred destination filled up this pass; force one
            # move to the first open part so the excess still shrinks.
            v = int(cand[0])
            dst = int(np.flatnonzero(loads < size)[0])
            loads[asg[v]] -= 1
            loads[dst] += 1
            asg[v] = dst


def split_k_densified(aff, k: int) -> list[list[int]]:
    """Multilevel ``split_k`` with each refined level densified first.

    Only the refinement's input differs from the library: the dense
    level matrix instead of its CSR rows. For orders above
    ``DIRECT_LIMIT`` with parts of two or more tasks.
    """
    from repro.treematch import bisect
    from repro.treematch.coarsen import coarsen
    from repro.treematch.grouping import refine_groups as library_refine

    size = aff.shape[0] // k
    levels = coarsen(
        aff, target=max(bisect.COARSE_MIN, bisect.COARSE_PER_PART * k)
    )
    coarsest = levels[-1]
    asg = bisect._partition_weighted(
        coarsest.indptr, coarsest.indices, coarsest.data, coarsest.weights,
        k, size,
    )
    for lvl in reversed(levels):
        if lvl.coarse_of is not None:
            asg = asg[lvl.coarse_of]
        if lvl.n <= bisect.REFINE_LIMIT:
            dense = sp.csr_array(
                (lvl.data, lvl.indices, lvl.indptr), shape=(lvl.n, lvl.n)
            ).toarray()
            groups = [np.flatnonzero(asg == g).tolist() for g in range(k)]
            for gi, g in enumerate(library_refine(dense, groups)):
                asg[np.asarray(g, dtype=np.intp)] = gi
    finest = levels[0]
    asg = bisect._rebalance_exact(
        finest.indptr, finest.indices, finest.data, asg, k, size
    )
    return [np.flatnonzero(asg == g).tolist() for g in range(k)]
