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
   ``refine_groups`` delta-gain local search on every level small enough
   to densify, and
4. restore exact part sizes at the finest level with gain-aware moves
   (coarse vertices are indivisible, so steps 2–3 can overshoot).

Deterministic throughout: greedy ties break on the smallest index and
every sweep visits candidates in a sorted order.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MappingError
from repro.treematch.coarsen import coarsen, parts_to_dense
from repro.treematch.grouping import group_processes, refine_groups

try:  # pragma: no cover - optional dependency
    from scipy import sparse as _sp
except ImportError:  # pragma: no cover
    _sp = None

__all__ = ["split_k", "DIRECT_LIMIT", "REFINE_LIMIT"]

#: Below this order the dense group/refine engines run directly on the
#: full matrix — coarsening overhead would exceed the grouping cost.
DIRECT_LIMIT = 512

#: Coarse levels up to this order are densified for ``refine_groups``
#: during uncoarsening; larger levels are projected without local search.
REFINE_LIMIT = 2048

#: Coarsening stops around ``max(COARSE_MIN, COARSE_PER_PART * k)``
#: vertices, so the coarsest partition sees a few vertices per part.
COARSE_PER_PART = 16
COARSE_MIN = 128


def _densify(aff) -> np.ndarray:
    if _sp is not None and _sp.issparse(aff):
        return np.asarray(aff.todense(), dtype=np.float64)
    return np.asarray(aff, dtype=np.float64)


def _grow_side(
    sub: np.ndarray, wloc: np.ndarray, target: int
) -> np.ndarray:
    """Boolean mask of one bisection side, grown greedily by affinity.

    Seeds at the vertex of largest weighted degree, then repeatedly pulls
    in the free vertex most attracted to the side until the side's
    fine-task weight reaches *target* (overshooting by at most one coarse
    vertex) — always leaving at least one vertex for the other side.
    """
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


def _partition_weighted(
    m: np.ndarray, weights: np.ndarray, k: int, per_part: int
) -> np.ndarray:
    """Recursive bisection of the (small, dense) coarsest graph.

    ``weights[v]`` counts fine tasks inside coarse vertex ``v``; each of
    the *k* parts targets ``per_part`` fine tasks. Returns the vertex→part
    assignment; parts are numbered left-to-right in recursion order.
    """
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
        side = _grow_side(sub, weights[idx], per_part * k1)
        rec(idx[side], k1)
        rec(idx[~side], kk - k1)

    rec(np.arange(n), k)
    return asg


def _refine_asg(dense: np.ndarray, asg: np.ndarray, k: int) -> np.ndarray:
    """Run ``refine_groups`` on an assignment array (size-preserving)."""
    groups = [np.flatnonzero(asg == g).tolist() for g in range(k)]
    refined = refine_groups(dense, groups)
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
    # One gather of every candidate's CSR span, in candidate order:
    # span r starts at indptr[cand[r]] and sits at ends[r] - lens[r].
    lens = indptr[cand + 1] - indptr[cand]
    ends = np.cumsum(lens)
    rows = np.repeat(np.arange(nc), lens)
    idx = np.arange(ends[-1]) + np.repeat(indptr[cand] - (ends - lens), lens)
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


def split_k(aff, k: int, *, refine_limit: int = REFINE_LIMIT) -> list[list[int]]:
    """Split the tasks of *aff* into *k* equal affinity-heavy parts.

    *aff* is a symmetric zero-diagonal affinity matrix (dense array or
    scipy sparse); its order must be divisible by *k*. Returns *k* lists
    of ``n // k`` sorted task indices. Part numbering is deterministic
    but carries no topology meaning — callers order parts separately
    (see ``maporder``).
    """
    n = int(aff.shape[0])
    if k <= 0:
        raise MappingError(f"part count must be positive, got {k}")
    if n % k:
        raise MappingError(f"cannot split {n} tasks into {k} equal parts")
    size = n // k
    if k == 1:
        return [list(range(n))]
    if size == 1:
        return [[i] for i in range(n)]
    if n <= DIRECT_LIMIT:
        return group_processes(_densify(aff), size, refine=True)

    levels = coarsen(aff, target=max(COARSE_MIN, COARSE_PER_PART * k))
    coarsest = levels[-1]
    dense_c = parts_to_dense(
        coarsest.indptr, coarsest.indices, coarsest.data, coarsest.n
    )
    asg = _partition_weighted(dense_c, coarsest.weights, k, size)
    if coarsest.n <= refine_limit:
        asg = _refine_asg(dense_c, asg, k)
    for li in range(len(levels) - 2, -1, -1):
        lvl = levels[li]
        asg = asg[lvl.coarse_of]
        if lvl.n <= refine_limit:
            dense = parts_to_dense(lvl.indptr, lvl.indices, lvl.data, lvl.n)
            asg = _refine_asg(dense, asg, k)
    finest = levels[0]
    asg = _rebalance_exact(
        finest.indptr, finest.indices, finest.data, asg, k, size
    )
    return [np.flatnonzero(asg == g).tolist() for g in range(k)]
