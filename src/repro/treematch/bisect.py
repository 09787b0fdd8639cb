"""Recursive-bisection k-way splitting on the coarsening hierarchy.

:func:`split_k` partitions the ``n`` tasks of an affinity matrix into
``k`` equal parts (``n % k == 0``) — the step the multilevel mapper runs
once per topology level instead of grouping the full matrix. Small
problems go straight to the dense :func:`group_processes` engines; large
ones follow the classic multilevel scheme (*Shared-Memory Hierarchical
Process Mapping*, Schulz & Woydt):

1. coarsen the affinity graph once (heavy-edge matching) down to a few
   hundred weighted vertices,
2. partition the coarsest graph by recursive bisection — each bisection
   greedily grows one side by affinity until it holds its share of the
   fine-task weight,
3. uncoarsen: project the partition level by level, running the
   ``refine_groups`` delta-gain local search on the CSR rows of every
   level of order up to :data:`REFINE_LIMIT` (no level is densified), and
4. restore exact part sizes at the finest level with gain-aware moves
   (coarse vertices are indivisible, so steps 2–3 can overshoot).

Deterministic throughout: greedy ties break on the smallest index and
every sweep visits candidates in a sorted order.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sp

from repro.errors import MappingError
from repro.treematch.coarsen import _row_ids, _spans, _take_parts, coarsen
from repro.treematch.commmatrix import check_affinity
from repro.treematch.grouping import group_processes, refine_groups

__all__ = ["split_k", "DIRECT_LIMIT", "REFINE_LIMIT"]

#: Below this order the dense group/refine engines run directly on the
#: full matrix — coarsening overhead would exceed the grouping cost.
DIRECT_LIMIT = 512

#: Coarse levels up to this order are refined by ``refine_groups`` on
#: their CSR rows during uncoarsening; larger levels are projected
#: without local search (a row's full gain evaluation is n floats, so a
#: sweep can cost O(n^2)).
REFINE_LIMIT = 2048

#: Coarsening stops around ``max(COARSE_MIN, COARSE_PER_PART * k)``
#: vertices, so the coarsest partition sees a few vertices per part.
COARSE_PER_PART = 16
COARSE_MIN = 128


#: Rows per dense block when degrees are summed the dense way: blocks
#: stay near this many elements whatever the graph's order.
_SEED_BLOCK = 1 << 18


def _densify(aff) -> np.ndarray:
    if _sp.issparse(aff):
        return np.asarray(aff.todense(), dtype=np.float64)
    return np.asarray(aff, dtype=np.float64)


def _seed(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray) -> int:
    """The vertex of largest weighted degree, ties to the smallest index.

    Degrees are compared as ``dense.sum(axis=1)`` sums them, in numpy's
    pairwise order over the whole dense row, which can round differently
    from a sum of the row's nonzeros. Summed in any order, a non-negative
    row lands within a relative ``n * eps`` of its exact value, so only
    rows that close to the largest CSR-order degree can hold the dense
    maximum; just those are densified, a bounded block of rows at a time.
    """
    n = indptr.size - 1
    deg = np.bincount(_row_ids(indptr), weights=data, minlength=n)
    top = deg.max()
    if top == 0.0:
        return 0
    cand = np.flatnonzero(deg >= top * (1.0 - 4.0 * n * np.finfo(float).eps))
    per_block = max(1, _SEED_BLOCK // n)
    best, seed = -np.inf, 0
    for start in range(0, cand.size, per_block):
        rows = cand[start : start + per_block]
        at, span = _spans(indptr, rows)
        dense = np.zeros((rows.size, n))
        dense[at, indices[span]] = data[span]
        sums = dense.sum(axis=1)
        j = int(sums.argmax())
        if sums[j] > best:
            best, seed = sums[j], int(rows[j])
    return seed


def _grow_side(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    wloc: np.ndarray,
    target: int,
) -> np.ndarray:
    """Boolean mask of one bisection side, grown greedily by affinity.

    Seeds at the vertex of largest weighted degree, then repeatedly pulls
    in the free vertex most attracted to the side until the side's
    fine-task weight reaches *target* (overshooting by at most one coarse
    vertex) — always leaving at least one vertex for the other side.
    Works on the canonical CSR rows of the graph: scattering a row's
    nonzeros into ``attract`` adds exactly what the dense row would.
    """
    nloc = wloc.size
    in_a = np.zeros(nloc, dtype=bool)
    ptr = indptr.tolist()
    weight = wloc.tolist()
    v = _seed(indptr, indices, data)
    attract = np.zeros(nloc)
    wa = 0
    count = 0
    while True:
        in_a[v] = True
        lo = ptr[v]
        hi = ptr[v + 1]
        attract[indices[lo:hi]] += data[lo:hi]
        attract[v] = -np.inf
        wa += weight[v]
        count += 1
        if wa >= target or count >= nloc - 1:
            return in_a
        v = int(attract.argmax())


def _partition_weighted(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    weights: np.ndarray,
    k: int,
    per_part: int,
) -> np.ndarray:
    """Recursive bisection of the coarsest graph, given as canonical CSR.

    ``weights[v]`` counts fine tasks inside coarse vertex ``v``; each of
    the *k* parts targets ``per_part`` fine tasks. Returns the vertex→part
    assignment; parts are numbered left-to-right in recursion order.
    Each side recurses on its own rows of the graph, so no step holds
    more than the graph's edges.
    """
    n = weights.size
    asg = np.full(n, -1, dtype=np.intp)
    next_part = 0

    def rec(idx, ip, ix, dv, kk: int) -> None:
        nonlocal next_part
        if kk == 1 or idx.size <= 1:
            asg[idx] = next_part
            next_part += kk
            return
        k1 = (kk + 1) // 2
        side = _grow_side(ip, ix, dv, weights[idx], per_part * k1)
        for keep, kp in ((side, k1), (~side, kk - k1)):
            rec(idx[keep], *_take_parts(ip, ix, dv, np.flatnonzero(keep)), kp)

    rec(np.arange(n), indptr, indices, data, k)
    return asg


def _refine_asg(level, asg: np.ndarray, k: int) -> np.ndarray:
    """Run ``refine_groups`` on the CSR rows of *level* (a
    :class:`~repro.treematch.coarsen.CoarseLevel`) and an assignment
    array (size-preserving)."""
    groups = [np.flatnonzero(asg == g).tolist() for g in range(k)]
    refined = refine_groups((level.indptr, level.indices, level.data), groups)
    out = np.empty_like(asg)
    for gi, g in enumerate(refined):
        out[np.asarray(g, dtype=np.intp)] = gi
    return out


def _attraction_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    asg: np.ndarray,
    k: int,
    cand: np.ndarray,
) -> np.ndarray:
    """Attraction of each candidate vertex to every part (|cand| × k)."""
    nc = cand.size
    if nc == 0:
        return np.zeros((0, k))
    rows, idx = _spans(indptr, cand)
    # Like np.add.at, bincount adds each bin's weights in input order.
    flat = np.bincount(
        rows * k + asg[indices[idx]], weights=data[idx], minlength=nc * k
    )
    return flat.reshape(nc, k)


def _rebalance_exact(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    asg: np.ndarray,
    k: int,
    size: int,
) -> np.ndarray:
    """Move vertices out of over-full parts until every part holds *size*.

    Runs on the finest level only (unit weights, so exact balance is
    reachable). Each pass ranks the over-full parts' vertices by the gain
    of moving to their most attractive under-full part and applies the
    moves greedily under the capacity constraints; every pass strictly
    shrinks the total excess, so the loop terminates.
    """
    loads = np.bincount(asg, minlength=k)
    while True:
        excess = loads - size
        over = np.flatnonzero(excess > 0)
        if over.size == 0:
            return asg
        under = np.flatnonzero(excess < 0)
        cand = np.flatnonzero(np.isin(asg, over))
        attr = _attraction_rows(indptr, indices, data, asg, k, cand)
        to_under = attr[:, under]
        dest_pos = to_under.argmax(axis=1)
        rows = np.arange(cand.size)
        gain = to_under[rows, dest_pos] - attr[rows, asg[cand]]
        order = np.argsort(-gain, kind="stable")
        # The move loop runs on plain ints. A vertex appears once per
        # pass, so the part read for it here is current when it moves.
        ranked = cand[order]
        load = loads.tolist()
        moved, dests = [], []
        left = int(excess[over].sum())
        for v, src, dst in zip(  # hotlint: ok(alloc) one conversion per pass
            ranked.tolist(), asg[ranked].tolist(), under[dest_pos[order]].tolist()
        ):
            if load[src] <= size or load[dst] >= size:
                continue
            load[src] -= 1
            load[dst] += 1
            moved.append(v)
            dests.append(dst)
            left -= 1
            if left == 0:  # no part is over-full: nothing later can move
                break
        if moved:
            asg[moved] = dests
            loads[:] = load
        else:
            # Every preferred destination filled up this pass; force one
            # move to the first open part so the excess still shrinks.
            v = int(cand[0])
            dst = int(np.flatnonzero(loads < size)[0])
            loads[asg[v]] -= 1
            loads[dst] += 1
            asg[v] = dst


def split_k(aff, k: int) -> list[list[int]]:
    """Split the tasks of *aff* into *k* equal affinity-heavy parts.

    *aff* is a symmetric, finite, non-negative affinity matrix (dense
    array or scipy sparse); its order must be divisible by *k*. An *aff*
    that :func:`~repro.treematch.commmatrix.check_affinity` rejects
    raises :class:`~repro.errors.MappingError`; it is checked once per
    call, by :func:`coarsen` when the split is multilevel. Returns *k*
    lists of ``n // k`` sorted task indices. Part numbering is
    deterministic but carries no topology meaning — callers order parts
    separately (see ``maporder``).
    """
    n = int(aff.shape[0])
    if k <= 0:
        raise MappingError(f"part count must be positive, got {k}")
    if n % k:
        raise MappingError(f"cannot split {n} tasks into {k} equal parts")
    size = n // k
    if k == 1 or size == 1 or n <= DIRECT_LIMIT:
        check_affinity(aff)
        if k == 1:
            return [list(range(n))]
        if size == 1:
            return [[i] for i in range(n)]
        return group_processes(_densify(aff), size, refine=True)

    levels = coarsen(aff, target=max(COARSE_MIN, COARSE_PER_PART * k))
    coarsest = levels[-1]
    asg = _partition_weighted(
        coarsest.indptr, coarsest.indices, coarsest.data, coarsest.weights,
        k, size,
    )
    for lvl in reversed(levels):  # coarsest first
        if lvl.coarse_of is not None:
            asg = asg[lvl.coarse_of]
        if lvl.n <= REFINE_LIMIT:
            asg = _refine_asg(lvl, asg, k)
    finest = levels[0]
    asg = _rebalance_exact(
        finest.indptr, finest.indices, finest.data, asg, k, size
    )
    return [np.flatnonzero(asg == g).tolist() for g in range(k)]
