"""``GroupProcesses`` — partition threads into equal-size affinity groups.

Given the current (symmetric) affinity matrix of order ``p`` and a group
size ``a`` (the arity of the topology level being processed), produce
``k = p / a`` disjoint groups maximizing intra-group traffic. As in the
paper, the engine "goes from an optimal but exponential algorithm to a
greedy one that is linear" depending on the problem size; a local-search
refinement pass closes most of the gap for mid-size problems.

Scalability notes (ISSUE 3): the exact engine prunes its enumeration
with a sorted-edge upper bound (branch-and-bound), the greedy engine
keeps lazy row maxima instead of rescanning the matrix, and the
refinement pass is a delta-gain local search driven by a precomputed
element-to-group attraction matrix — all three stay usable at
``p ≈ 4096`` (see the ``mapping_bench`` entries of ``BENCH_sim.json``).
The greedy and refinement engines read a dense or a CSR affinity
through one reader class per backend (``_DenseRows``, ``_CsrRows``).
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np
from scipy import sparse as _sp

from repro.errors import MappingError
from repro.treematch.coarsen import _spans, _take_parts
from repro.treematch.commmatrix import _canonical_csr, _row_ids, check_affinity
from repro.util.matrix import row_blocks

__all__ = [
    "group_processes",
    "group_optimal",
    "group_greedy",
    "refine_groups",
    "partition_count",
    "partition_count_exceeds",
    "intra_group_weight",
]

#: Exhaustive search is used when the number of candidate partitions is
#: below this bound (compare `partition_count`). Raised 10x over the
#: original pure-enumeration limit: the branch-and-bound bound prunes
#: most of the canonical tree, so the exact engine now covers more of
#: the small-p space within the same time budget.
OPTIMAL_SEARCH_LIMIT = 200_000


def partition_count(p: int, a: int) -> int:
    """Number of distinct partitions of ``p`` items into groups of size ``a``.

    Counted canonically (lowest unassigned element anchors each group):
    ``prod_i C(p - i*a - 1, a - 1)``.
    """
    if p % a:
        raise MappingError(f"cannot split {p} processes into groups of {a}")
    count = 1
    remaining = p
    while remaining > 0:
        count *= comb(remaining - 1, a - 1)
        remaining -= a
    return count


def partition_count_exceeds(p: int, a: int, limit: int) -> bool:
    """True when :func:`partition_count` would exceed *limit*.

    Stops multiplying as soon as the running product passes *limit* —
    for large ``p`` the full count is a huge exact integer whose only use
    here is a one-sided comparison, so most of the arithmetic is wasted.
    """
    if p % a:
        raise MappingError(f"cannot split {p} processes into groups of {a}")
    count = 1
    remaining = p
    while remaining > 0:
        count *= comb(remaining - 1, a - 1)
        if count > limit:
            return True
        remaining -= a
    return count > limit


def intra_group_weight(m, groups: list[list[int]]) -> float:
    """Total affinity kept inside groups (the maximization objective).

    *m* is assumed symmetric (the TreeMatch affinity view); each group's
    contribution is half its off-diagonal submatrix sum. A CSR *m* (a
    scipy sparse matrix or canonical ``(indptr, indices, data)`` rows)
    sums the stored entries of each group's rows whose column is in the
    group too: the dense value on integer weights, and up to rounding on
    others.
    """
    csr = _csr_rows(m)
    total = 0.0
    if csr is not None:
        indptr, indices, data = csr
        inside = np.zeros(indptr.size - 1, dtype=bool)
        for g in groups:
            idx = np.asarray(g, dtype=np.intp)
            if not idx.size:
                continue
            at, span = _spans(indptr, idx)
            inside[idx] = True
            cols = indices[span]
            keep = inside[cols] & (cols != idx[at])
            inside[idx] = False
            total += data[span[keep]].sum() / 2.0
        return float(total)
    m = np.asarray(m, dtype=np.float64)
    for g in groups:
        idx = np.asarray(g, dtype=np.intp)
        sub = m[np.ix_(idx, idx)]
        total += (sub.sum() - np.trace(sub)) / 2.0
    return float(total)


def _check_arity(p: int, arity: int) -> None:
    """Raise MappingError unless *p* processes split into groups of *arity*."""
    if arity <= 0:
        raise MappingError(f"arity must be positive, got {arity}")
    if p % arity:
        raise MappingError(f"{p} processes are not divisible into groups of {arity}")


def _csr_rows(m):
    """Canonical ``(indptr, indices, data)`` rows of a CSR *m*, float64,
    or None when *m* is dense.

    *m* is a scipy sparse matrix (canonicalized on a copy only when it
    is not canonical) or rows already canonical, which are taken as
    they are.
    """
    if isinstance(m, tuple):
        return m
    if _sp.issparse(m):
        c = _canonical_csr(m)
        return c.indptr, c.indices, np.asarray(c.data, dtype=np.float64)
    return None


def group_processes(
    m,
    arity: int,
    *,
    force: str | None = None,
    refine: bool = True,
    stats: dict | None = None,
) -> list[list[int]]:
    """Partition the ``order(m)`` processes into groups of size *arity*.

    *force* pins the engine (``"optimal"`` or ``"greedy"``); by default the
    exhaustive engine is used whenever :func:`partition_count` stays under
    ``OPTIMAL_SEARCH_LIMIT``; a forced ``"optimal"`` above that limit
    raises :class:`MappingError` rather than run an exponential search.
    Groups and their members are returned in a canonical order (each
    group led by its smallest member, groups sorted by leader) so results
    are deterministic. *stats* is forwarded to :func:`refine_groups` when
    the refinement pass runs. *m* must pass
    :func:`~repro.treematch.commmatrix.check_affinity` (square, finite,
    non-negative, symmetric; :class:`MappingError` names the defect).

    *m* is dense or a scipy sparse matrix. A sparse one stays CSR
    through :func:`group_greedy` and :func:`refine_groups`, so no
    ``p x p`` array is built; only the exhaustive engine, whose orders
    stay below ~25, densifies it. The greedy groups are the dense ones
    on any input, and the refined ones too when the refinement's sums
    are exact, as on integer weights; on other weights the CSR
    attraction sums in stored-entry order instead of BLAS order, so a
    near-tie can resolve differently (see :func:`refine_groups`).
    """
    a = check_affinity(m)
    p = a.shape[0]
    _check_arity(p, arity)
    if arity == 1:
        return [[i] for i in range(p)]
    if arity == p:
        return [list(range(p))]
    if force == "optimal":
        if partition_count_exceeds(p, arity, OPTIMAL_SEARCH_LIMIT):
            raise MappingError(
                f"optimal grouping of {p} processes into groups of {arity} "
                f"exceeds OPTIMAL_SEARCH_LIMIT ({OPTIMAL_SEARCH_LIMIT} "
                f"partitions); use the greedy engine"
            )
        exact = True
    elif force == "greedy":
        exact = False
    elif force is None:
        exact = not partition_count_exceeds(p, arity, OPTIMAL_SEARCH_LIMIT)
    else:
        raise MappingError(f"unknown grouping engine {force!r}")
    if exact:
        groups = group_optimal(
            a if isinstance(a, np.ndarray) else a.toarray(), arity
        )
    else:
        groups = group_greedy(a, arity)
        if refine:
            groups = refine_groups(a, groups, stats=stats)
    return _canonical(groups)


def _canonical(groups: list[list[int]]) -> list[list[int]]:
    out = [sorted(g) for g in groups]
    out.sort(key=lambda g: g[0])
    return out


# -- exhaustive engine ---------------------------------------------------------


def group_optimal(m: np.ndarray, arity: int) -> list[list[int]]:
    """Exact canonical enumeration with branch-and-bound pruning.

    The bound: an element can never gain more than the sum of its
    ``arity - 1`` heaviest incident edges inside any future group, and
    summing that over the unassigned remainder counts every candidate
    pair at most twice — so half that sum bounds the achievable weight of
    any completion. Subtrees whose bound cannot beat the incumbent are
    skipped, which keeps the engine usable well past the old enumeration
    limit while returning exactly the enumeration's result. Guarded by
    ``OPTIMAL_SEARCH_LIMIT`` in :func:`group_processes`, but callable
    directly for tests.
    """
    p = m.shape[0]
    sorted_rows = np.sort(m, axis=1)[:, ::-1]
    top_gain = sorted_rows[:, : arity - 1].sum(axis=1)

    best_groups: list[list[int]] | None = None
    best_weight = -1.0

    def recurse(
        unassigned: list[int],
        acc: list[list[int]],
        weight: float,
        rem_bound: float,
    ) -> None:
        nonlocal best_groups, best_weight
        if not unassigned:
            if weight > best_weight:
                best_weight = weight
                best_groups = [list(g) for g in acc]
            return
        if weight + 0.5 * rem_bound <= best_weight:
            return
        anchor = unassigned[0]
        rest = unassigned[1:]
        anchor_bound = top_gain[anchor]
        for combo in combinations(rest, arity - 1):
            group = [anchor, *combo]
            w = weight
            for x, i in enumerate(group):
                for j in group[x + 1 :]:
                    w += m[i, j]
            child_bound = rem_bound - anchor_bound - sum(
                top_gain[c] for c in combo
            )
            if w + 0.5 * child_bound <= best_weight:
                continue
            combo_set = set(combo)
            remaining = [u for u in rest if u not in combo_set]
            acc.append(group)
            recurse(remaining, acc, w, child_bound)
            acc.pop()

    recurse(list(range(p)), [], 0.0, float(top_gain.sum()))
    assert best_groups is not None
    return best_groups


# -- greedy engine ---------------------------------------------------------------


def group_greedy(m, arity: int) -> list[list[int]]:
    """Greedy grouping: seed each group with the heaviest unassigned pair,
    then grow it with the element most attracted to the group.

    Seed selection keeps lazy per-row maxima (refreshed only when a row's
    witness column is retired) instead of rescanning the p x p matrix, and
    each grow step updates the group-attraction vector incrementally — so
    the engine stays near-linear even at thousands of threads.

    *m* is any finite, non-negative square matrix; its diagonal is never
    selected. :class:`MappingError` is raised, before any work, unless
    *arity* is positive and divides the order. Two backends run the same
    loop and differ in three reads: the first row maxima, a row
    refreshed after its witness column retired, and the row a grow step
    adds.

    * Dense: rows of *m* are read in place, with no p x p copy. The
      first row maxima come from row blocks whose diagonal is set to
      -inf, and a refreshed row sets its own column to -inf. Every
      other diagonal entry only reaches a retired column, which the
      mask sends to -inf anyway, so each selection, ties included, is
      that of grouping on a copy with a -inf diagonal.
    * CSR: a scipy sparse matrix, or canonical ``(indptr, indices,
      data)`` rows. A first row maximum is the largest stored
      off-diagonal entry, lowest column on ties, and 0.0 at the lowest
      column other than the row itself when no stored entry is
      positive. A refreshed row zero-fills its buffer and writes the
      stored entries; a grow step adds them. Every entry left out is a
      ``+ 0.0``, so each value, and each selection, is the dense one on
      any input, float weights included.
    """
    csr = _csr_rows(m)
    if csr is None:
        m = np.asarray(m, dtype=np.float64)
        p = m.shape[0]
        aff = _DenseRows(m)
    else:
        p = csr[0].size - 1
        aff = _CsrRows(*csr)
    _check_arity(p, arity)
    if arity == 1:
        return [[i] for i in range(p)]
    # Retired vertices are masked by an additive -inf penalty vector
    # instead of per-step ``np.where`` temporaries: retiring is O(1),
    # and each grow step is two in-place vector adds plus one C-level
    # argmax into preallocated buffers — no allocation, no strided
    # writes, identical selections (ties resolve on the same values).
    free = np.ones(p, dtype=bool)
    n_free = p
    mask = np.zeros(p)
    cand = np.empty(p)
    attract = np.empty(p)
    row_max, row_arg = aff.row_maxima()
    groups: list[list[int]] = []

    def retire(i: int) -> None:
        nonlocal n_free
        free[i] = False
        n_free -= 1
        row_max[i] = -np.inf
        mask[i] = -np.inf

    def heaviest_pair() -> tuple[int, int]:
        while True:
            i = int(row_max.argmax())
            j = int(row_arg[i])
            if free[j]:
                return i, j
            # Stale witness: recompute this row's maximum over free
            # columns (the mask sends retired ones to -inf).
            aff.copy_row(i, cand)
            np.add(cand, mask, out=cand)
            cand[i] = -np.inf
            row_max[i] = cand.max()
            row_arg[i] = cand.argmax()

    while n_free:
        if n_free == arity:
            groups.append([int(i) for i in np.flatnonzero(free)])  # hotlint: ok(alloc)
            break
        seed_i, seed_j = heaviest_pair()
        group = [seed_i, seed_j]
        aff.copy_row(seed_i, attract)
        aff.add_row(seed_j, attract)
        retire(seed_i)
        retire(seed_j)
        while len(group) < arity:
            np.add(attract, mask, out=cand)
            best = int(cand.argmax())
            retire(best)
            group.append(best)
            aff.add_row(best, attract)
        groups.append(group)
    return groups


# -- refinement -------------------------------------------------------------------

#: Row-block size for the vectorized gain evaluation. Each block's
#: temporaries are block x n floats, so 32 rows keep them in cache (1 MB
#: at n = 4160; 2 MB L2 per core on the 2-CPU Xeon measured). A whole
#: sweep at n = 4160, k = 160 took 130 ms here against 606 ms with the
#: old 512-row blocks. 16 rows was 13% faster at that size but 15% slower
#: on the order-160 calls of adaptive remaps; 64 rows or more was slower
#: at n = 4160 and no faster on the small calls.
_REFINE_BLOCK = 32

#: A swap is applied only when its gain exceeds this; rows whose gains
#: are bounded by it are not evaluated at all.
_MIN_GAIN = 1e-12

#: Safety stop of :func:`refine_groups`: sweeps repeat until none
#: improves, at most this many.
_MAX_SWEEPS = 32


class _DenseRows:
    """What the greedy and refinement engines read of a dense affinity:
    the first row maxima, whole rows, the attraction, the pair terms, a
    swap's update and the negative-entry term of the gain bound."""

    def __init__(self, sub: np.ndarray) -> None:
        self.sub = sub

    def row_maxima(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's largest off-diagonal entry and its lowest column,
        read in row blocks whose diagonal is set to -inf."""
        p = self.sub.shape[0]
        row_max = np.empty(p)
        row_arg = np.empty(p, dtype=np.intp)
        for rows in row_blocks(p, p):
            block = self.sub[rows].copy()
            local = np.arange(block.shape[0])
            block[local, local + rows.start] = -np.inf
            row_max[rows] = block.max(axis=1)
            row_arg[rows] = block.argmax(axis=1)
        return row_max, row_arg

    def copy_row(self, i: int, out: np.ndarray) -> None:
        """``out[:] = m[i]``."""
        np.copyto(out, self.sub[i])

    def add_row(self, i: int, out: np.ndarray) -> None:
        """``out += m[i]``."""
        out += self.sub[i]

    def attraction(self, asg: np.ndarray, k: int) -> np.ndarray:
        indicator = np.zeros((asg.size, k))
        indicator[np.arange(asg.size), asg] = 1.0
        return self.sub @ indicator

    def low(self) -> np.ndarray | None:
        row_min = self.sub.min(axis=1)
        if not (row_min < 0).any():
            return None
        return 2.0 * np.minimum(row_min, 0.0)

    def subtract_pairs(self, gain, rows, cols=None) -> None:
        """``gain -= 2 m[rows, cols]`` (all columns when *cols* is None)."""
        if cols is None:
            gain -= 2.0 * self.sub[rows]
        else:
            gain -= 2.0 * self.sub[rows[:, None], cols]

    def pair(self, i: int, j: int) -> float:
        return self.sub[i, j]

    def swap_diff(self, i: int, j: int):
        """``(where, m[where, j] - m[where, i])`` over every row."""
        return slice(None), self.sub[:, j] - self.sub[:, i]


class _CsrRows:
    """The same reads of a canonical CSR affinity.

    Only stored entries are read: an absent entry would subtract or add
    ``0.0``, which leaves every other operand's bits unchanged.
    """

    def __init__(self, indptr, indices, data) -> None:
        self.indptr, self.indices, self.data = indptr, indices, data
        n = indptr.size - 1
        self.ptr = indptr.tolist()
        self.pos = np.full(n, -1, dtype=np.intp)
        self.scratch = np.zeros(n)

    def row_maxima(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's largest off-diagonal entry and its lowest column.

        A row with no positive stored entry peaks at 0.0 in its lowest
        column other than itself, which is what a dense argmax picks
        among equal zeros.
        """
        n = self.indptr.size - 1
        row_max = np.zeros(n)
        row_arg = (np.arange(n) == 0).astype(np.intp)
        rows = _row_ids(self.indptr)
        keep = (self.data > 0) & (self.indices != rows)
        r, c, d = rows[keep], self.indices[keep], self.data[keep]
        if r.size:
            head = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
            row_max[r[head]] = np.maximum.reduceat(d, head)
            # Columns ascend within a row: the first maximum is the
            # lowest column.
            top = np.flatnonzero(d == row_max[r])
            first = top[np.r_[True, r[top[1:]] != r[top[:-1]]]]
            row_arg[r[first]] = c[first]
        return row_max, row_arg

    def copy_row(self, i: int, out: np.ndarray) -> None:
        lo, hi = self.ptr[i], self.ptr[i + 1]
        out.fill(0.0)
        out[self.indices[lo:hi]] = self.data[lo:hi]

    def add_row(self, i: int, out: np.ndarray) -> None:
        lo, hi = self.ptr[i], self.ptr[i + 1]
        out[self.indices[lo:hi]] += self.data[lo:hi]

    def attraction(self, asg: np.ndarray, k: int) -> np.ndarray:
        # Each bin sums its row's entries in stored (column) order.
        rows = _row_ids(self.indptr)
        flat = np.bincount(rows * k + asg[self.indices], weights=self.data,
                           minlength=asg.size * k)
        return flat.reshape(asg.size, k)

    def low(self) -> np.ndarray | None:
        if not (self.data < 0).any():
            return None
        low = np.zeros(self.indptr.size - 1)
        np.minimum.at(low, _row_ids(self.indptr), self.data)
        return 2.0 * low

    def subtract_pairs(self, gain, rows, cols=None) -> None:
        if cols is None:
            at, span = _spans(self.indptr, rows)
            gain[at, self.indices[span]] -= 2.0 * self.data[span]
            return
        # By symmetry m[r, c] is stored in row c: gather the rows of
        # the dirty columns, usually far fewer than the clean rows.
        at, span = _spans(self.indptr, cols)
        self.pos[rows] = np.arange(rows.size)
        r = self.pos[self.indices[span]]
        self.pos[rows] = -1
        hit = r >= 0
        gain[r[hit], at[hit]] -= 2.0 * self.data[span[hit]]

    def pair(self, i: int, j: int) -> float:
        lo, hi = self.ptr[i], self.ptr[i + 1]
        t = lo + int(self.indices[lo:hi].searchsorted(j))
        return self.data[t] if t < hi and self.indices[t] == j else 0.0

    def swap_diff(self, i: int, j: int):
        """``(where, m[j, where] - m[i, where])`` over the neighbours of
        *i* and *j*; a neighbour of both is listed twice, with one
        value."""
        lo_i, hi_i, lo_j, hi_j = (self.ptr[i], self.ptr[i + 1],
                                  self.ptr[j], self.ptr[j + 1])
        ci, cj = self.indices[lo_i:hi_i], self.indices[lo_j:hi_j]
        s = self.scratch
        s[cj] = self.data[lo_j:hi_j]
        s[ci] -= self.data[lo_i:hi_i]
        where = np.concatenate((ci, cj))
        diff = s[where]
        s[where] = 0.0
        return where, diff


def _member_check(members: np.ndarray, p: int) -> None:
    """Raise MappingError unless *members* are distinct indices below *p*."""
    if members.size and (members.min() < 0 or members.max() >= p):
        bad = members[(members < 0) | (members >= p)][0]
        raise MappingError(f"group member {bad} outside order {p}")
    counts = np.bincount(members, minlength=p)
    if (counts > 1).any():
        dup = int(np.flatnonzero(counts > 1)[0])
        raise MappingError(f"process {dup} is listed more than once")


def refine_groups(
    m,
    groups: list[list[int]],
    *,
    stats: dict | None = None,
) -> list[list[int]]:
    """Pairwise-swap local search: exchange elements between groups while
    any swap increases total intra-group weight.

    Delta-gain formulation: with ``A[i, g]`` the attraction of element
    *i* to group *g* (built once, updated incrementally after each
    applied swap), the gain of exchanging *i* and *j* is
    ``A[i, gj] + A[j, gi] - A[i, gi] - A[j, gj] - 2 m[i, j]``. Each sweep
    finds every element's best partner, then applies the best
    non-conflicting swaps in descending-gain order, re-checking each
    candidate's exact gain against the current state so the objective
    never decreases. Sweeps repeat until none improves, at most
    :data:`_MAX_SWEEPS` of them as a safety stop.

    Best partners are kept from sweep to sweep. A row is evaluated in
    full (vectorized, in row blocks) only when the last sweep's swaps
    changed its attraction or its best partner's, and only when a cheap
    upper bound on its gains exceeds the swap threshold; every other row
    merges just its gains toward the changed rows. The choices, ties
    included, are those of evaluating every pair each sweep.

    *m* is symmetric, in either backend:

    * a dense array. ``A`` is one BLAS product with the group indicator
      matrix, so its sums follow the BLAS build's order;
    * CSR: a scipy sparse matrix, or canonical rows ``(indptr, indices,
      data)`` (sorted, duplicate-free, as ``split_k``'s coarse levels
      hold them). ``A`` is one ``bincount`` that sums each row's stored
      entries in column order, and the pair terms and swap updates
      touch stored entries only, so no n x n array is built. On integer
      weights whose sums are exact, both backends compute the same bits
      and make the same choices; on other weights the attraction sums
      may round differently.

    When no entry of *m* is negative, the same-group pairs are not
    masked out of the gains: such a pair's gain is ``0 + 0 - 2 m[i, j]
    <= 0`` (finite sums), below the swap threshold, so the choices stay
    the same. Signed input keeps the mask.

    Only the listed members move; elements of *m* outside *groups* are
    untouched (the search then runs on the member submatrix). Members
    must be distinct indices of *m* (:class:`MappingError` otherwise).

    *stats*, when given, accumulates ``"sweeps"`` (gain-evaluation
    rounds run, including the final no-improvement one) and ``"swaps"``
    (exchanges applied) across calls — how warm-start convergence is
    counted rather than timed.

    *m*'s entries are not validated. Every caller derives it from a
    matrix that was checked already: :func:`group_processes` and
    ``split_k`` check their input, and ``treematch_map`` builds its
    matrices from a validated
    :class:`~repro.treematch.commmatrix.CommunicationMatrix`. One
    ``repro-paper map`` pass makes 275 calls, 273 of them on
    ``split_k``'s coarse levels, so a check here would repeat that work
    275 times.
    """
    groups = [list(g) for g in groups]
    k = len(groups)
    if k < 2:
        return groups
    csr = _csr_rows(m)
    if csr is None:
        m = np.asarray(m, dtype=np.float64)
    p = m.shape[0] if csr is None else csr[0].size - 1
    members = [i for g in groups for i in g]
    n = len(members)
    if n == p and sorted(members) == list(range(p)):
        local_of: np.ndarray | None = None
        asg = np.empty(n, dtype=np.intp)
        for gi, g in enumerate(groups):
            asg[np.asarray(g, dtype=np.intp)] = gi
    else:
        local_of = np.asarray(members, dtype=np.intp)
        _member_check(local_of, p)
        asg = np.empty(n, dtype=np.intp)
        pos = 0
        for gi, g in enumerate(groups):
            asg[pos : pos + len(g)] = gi
            pos += len(g)
    if csr is None:
        aff = _DenseRows(m if local_of is None else m[np.ix_(local_of, local_of)])
    elif local_of is None:
        aff = _CsrRows(*csr)
    else:
        aff = _CsrRows(*_take_parts(*csr, local_of))

    attraction = aff.attraction(asg, k)
    rows = np.arange(n)
    # Row r's pair term -2 m[r, c] never exceeds -low[r]; None when no
    # entry is negative, and then same-group pairs need no mask.
    low = aff.low()
    signed = low is not None
    # Kept across sweeps: best_gain[r] and best_j[r] are exact when
    # best_gain[r] > _MIN_GAIN; otherwise no gain of row r exceeds it.
    best_gain = np.full(n, -np.inf)
    best_j = np.zeros(n, dtype=np.intp)
    dirty = np.ones(n, dtype=bool)
    sweeps = 0
    swaps = 0
    # Filled in place each sweep, so no sweep holds two generations of
    # these n x k arrays at once.
    delta = np.empty((n, k))
    delta_t = np.empty((k, n))
    outer = np.empty((n, k))
    for _ in range(_MAX_SWEEPS):
        sweeps += 1
        own = attraction[rows, asg]
        np.subtract(attraction, own[:, None], out=delta)
        # delta_t[g, j] = delta[j, g], contiguous so that each block
        # gathers whole rows of it.
        np.copyto(delta_t, delta.T)
        # The gain of a pair of clean rows is unchanged since the last
        # sweep, so a clean row only merges its gains toward the dirty
        # columns, unless its best partner is one of them.
        full = dirty | ((best_gain > _MIN_GAIN) & dirty[best_j])
        clean = np.flatnonzero(~full)
        cols = np.flatnonzero(dirty)
        # Rows are independent here; row blocks bound the gain
        # temporaries, which would otherwise be clean x dirty.
        for part in row_blocks(clean.size, cols.size):
            blk = clean[part]
            gain = np.take(delta[blk], asg[cols], axis=1)
            gain += delta_t[asg[blk, None], cols]
            aff.subtract_pairs(gain, blk, cols)
            if signed:
                np.putmask(gain, asg[blk, None] == asg[cols], -np.inf)
            arg = gain.argmax(axis=1)
            new_gain = gain[rows[: blk.size], arg]
            new_j = cols[arg]
            old_gain = best_gain[blk]
            # A tie goes to the lower column index, as in a full argmax.
            win = (new_gain > old_gain) | (
                (new_gain == old_gain) & (new_j < best_j[blk])
            )
            best_gain[blk[win]] = new_gain[win]
            best_j[blk[win]] = new_j[win]
        # No gain of row r exceeds its best other-group delta, plus the
        # largest delta an outsider has toward r's group, plus -low[r];
        # rounding is monotone, so neither does any computed gain.
        np.copyto(outer, delta)
        outer[rows, asg] = -np.inf
        bound = outer.max(axis=1) + outer.max(axis=0)[asg]
        if signed:
            bound -= low
        best_gain[full] = -np.inf
        todo = np.flatnonzero(full & (bound > _MIN_GAIN))
        for start in range(0, todo.size, _REFINE_BLOCK):
            blk = todo[start : start + _REFINE_BLOCK]
            gain_blk = np.take(delta[blk], asg, axis=1)
            gain_blk += delta_t[asg[blk]]
            aff.subtract_pairs(gain_blk, blk)
            if signed:
                np.putmask(gain_blk, asg[blk, None] == asg, -np.inf)
            arg = gain_blk.argmax(axis=1)
            best_j[blk] = arg
            best_gain[blk] = gain_blk[rows[: arg.size], arg]

        cand = np.flatnonzero(best_gain > _MIN_GAIN)
        touched = np.zeros(n, dtype=bool)
        dirty = np.zeros(n, dtype=bool)
        improved = False
        for i in cand[np.argsort(-best_gain[cand], kind="stable")].tolist():
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
                - 2.0 * aff.pair(i, j)
            )
            if gain <= _MIN_GAIN:
                continue
            # -= diff is bit for bit += m[:, i] - m[:, j]. Only rows
            # with diff != 0 get new gains.
            where, diff = aff.swap_diff(i, j)
            attraction[where, gi] += diff
            attraction[where, gj] -= diff
            dirty[where] |= diff != 0
            asg[i], asg[j] = gj, gi
            touched[i] = touched[j] = dirty[i] = dirty[j] = True
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
