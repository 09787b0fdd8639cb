"""Differential family: refinement and exact rebalance against their oracle.

``tests/harness/refine_oracle.py`` keeps the 512-row gain evaluation of
``refine_groups``, the per-vertex ``_attraction_rows`` and the move loop
of ``_rebalance_exact`` without its early stop. The library versions
must make the same choices on every seeded instance: the same groups,
the same sweep and swap counts, the same assignments.

The instances cover the ways a rewrite of the gain evaluation could
drift: dense random floats (signed too, so an own-group entry that
escapes the mask can outrank every real partner), integer stencil and
ring weights (many exact gain ties, so argmax tie-breaks show),
weights spread from 1 to 1e15 (rounding differences show), member
subsets (the ``local_of`` path), group sizes from 1 upward, and orders
below, at and not a multiple of the row-block size.

``TestCsrBackend`` runs the same instances through the CSR backend,
and ``TestSplitKAgainstDensified`` compares ``split_k``, which refines
coarse levels on their CSR rows, with a reference that densifies them,
on float-weighted stencils.

``TestIncrementalSweeps`` targets the state ``refine_groups`` keeps
between sweeps: sparse integer matrices that need several sweeps and
whose swaps leave most rows clean, signed entries (the bound's
negative-entry term), two groups, groups of one and member subsets,
plus two hand-built inputs where a dirty column ties a clean row's
stored best gain.
"""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.treematch import bisect as bisect_mod
from repro.treematch.commmatrix import CommunicationMatrix
from repro.treematch.grouping import _REFINE_BLOCK, refine_groups
from tests.harness import refine_oracle

B = _REFINE_BLOCK
#: Orders below, at and around the row block, plus one past the oracle's
#: 512-row block.
ORDERS = (6, B - 2, B, B + 1, 2 * B + 7, 3 * B + 20, 520)


def _sym(a: np.ndarray) -> np.ndarray:
    m = a + a.T
    np.fill_diagonal(m, 0.0)
    return m


def _uniform(n, rng):
    return _sym(rng.random((n, n)))


def _signed(n, rng):
    return _sym(rng.standard_normal((n, n)))


def _stencil(n, rng):
    return CommunicationMatrix.stencil2d(n, sparse=False).affinity()


def _ring(n, rng):
    m = np.zeros((n, n))
    idx = np.arange(n)
    m[idx, (idx + 1) % n] = 100.0
    m[idx, (idx + 3) % n] = 40.0
    return _sym(m)


def _wide(n, rng):
    # Sparse-ish integer weights, log-uniform over 1 .. 1e15.
    w = np.round(10.0 ** rng.uniform(0.0, 15.0, size=(n, n)))
    w[rng.random((n, n)) < 0.7] = 0.0
    return _sym(w)


MATRICES = {"uniform": _uniform, "signed": _signed, "stencil": _stencil,
            "ring": _ring, "wide": _wide}


def _partition(members, rng, sizes):
    """Split *members* (shuffled) into consecutive groups of *sizes*."""
    perm = list(rng.permutation(members))
    out, pos = [], 0
    for s in sizes:
        out.append([int(x) for x in perm[pos : pos + s]])
        pos += s
    return out


def _equal_sizes(n, rng):
    divisors = [a for a in range(1, n) if n % a == 0 and n // a >= 2]
    a = divisors[int(rng.integers(len(divisors)))]
    return [a] * (n // a)


def _mixed_sizes(n, rng):
    cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, 5), replace=False))
    return np.diff(np.concatenate(([0], cuts, [n]))).tolist()


def _assert_same_refine(m, groups, backend=None):
    """The library on *m*, or on *m* in *backend*, against the oracle.

    *backend* turns the dense *m* into the library's input (a CSR form);
    None passes *m* itself.
    """
    want_stats, got_stats = {}, {}
    want = refine_oracle.refine_groups(m, groups, stats=want_stats)
    aff = m if backend is None else backend(m)
    got = refine_groups(aff, groups, stats=got_stats)
    assert got == want
    assert got_stats == want_stats
    return want_stats


def _full_cases(kind, n):
    """A matrix of *kind* and order *n*, with equal and mixed groups."""
    rng = np.random.default_rng([n, sorted(MATRICES).index(kind)])
    m = MATRICES[kind](n, rng)
    for sizes in (_equal_sizes(n, rng), _mixed_sizes(n, rng)):
        yield m, _partition(np.arange(n), rng, sizes)


def _subset_cases(kind, seed):
    """Groups over a shuffled subset of a larger matrix of *kind*."""
    rng = np.random.default_rng([seed, 17, sorted(MATRICES).index(kind)])
    p = int(rng.integers(B + 5, 3 * B))
    m = MATRICES[kind](p, rng)
    n = int(rng.integers(B // 2, p))
    members = rng.choice(p, size=n, replace=False)
    for sizes in (_equal_sizes(n, rng), _mixed_sizes(n, rng)):
        yield m, _partition(members, rng, sizes)


class TestRefineAgainstOracle:
    @pytest.mark.parametrize("kind", sorted(MATRICES))
    @pytest.mark.parametrize("n", ORDERS)
    def test_full_member_set(self, kind, n):
        for m, groups in _full_cases(kind, n):
            _assert_same_refine(m, groups)

    @pytest.mark.parametrize("kind", sorted(MATRICES))
    @pytest.mark.parametrize("seed", range(4))
    def test_member_subset(self, kind, seed):
        # The search runs on the member submatrix (the local_of path).
        for m, groups in _subset_cases(kind, seed):
            _assert_same_refine(m, groups)

    @pytest.mark.parametrize("arity", [1, 2, 3, 4, 7, 13, 26])
    def test_group_sizes(self, arity):
        rng = np.random.default_rng(arity)
        n = arity * max(2, (3 * B) // arity)
        for kind in ("uniform", "stencil", "wide"):
            m = MATRICES[kind](n, rng)
            groups = _partition(np.arange(n), rng, [arity] * (n // arity))
            _assert_same_refine(m, groups)

    def test_family_exercises_swaps(self):
        # The comparisons above are only as strong as the work done in
        # them: random starts must need several sweeps and many swaps.
        rng = np.random.default_rng(99)
        n = 3 * B
        totals = {"sweeps": 0, "swaps": 0}
        for kind in sorted(MATRICES):
            m = MATRICES[kind](n, rng)
            st = _assert_same_refine(
                m, _partition(np.arange(n), rng, [n // 8] * 8)
            )
            assert st["sweeps"] >= 2, kind
            for key in totals:
                totals[key] += st[key]
        assert totals["swaps"] >= 100


def _csr_graph(n, rng, *, integer):
    """Random symmetric zero-diagonal CSR graph, some vertices isolated."""
    e = 4 * n
    rows = rng.integers(0, n, size=e)
    cols = rng.integers(0, n, size=e)
    vals = rng.integers(1, 6, size=e).astype(float) if integer else rng.random(e)
    isolated = rng.choice(n, size=max(1, n // 20), replace=False)
    keep = (rows != cols) & ~np.isin(rows, isolated) & ~np.isin(cols, isolated)
    coo = sp.coo_array((vals[keep], (rows[keep], cols[keep])), shape=(n, n))
    csr = sp.csr_array(coo + coo.T)
    csr.sum_duplicates()
    csr.sort_indices()
    return csr


def _skewed_assignment(n, k, rng):
    """Assignment of *n* vertices to *k* parts with uneven loads."""
    weights = rng.random(k) ** 3 + 0.01
    return rng.choice(k, size=n, p=weights / weights.sum()).astype(np.intp)


class TestRebalanceAgainstOracle:
    @pytest.mark.parametrize("integer", [True, False])
    @pytest.mark.parametrize("seed", range(12))
    def test_same_assignment(self, seed, integer):
        rng = np.random.default_rng([seed, integer])
        k = int(rng.integers(2, 12))
        size = int(rng.integers(1, 40))
        n = k * size
        g = _csr_graph(n, rng, integer=integer)
        asg = _skewed_assignment(n, k, rng)
        want = refine_oracle.rebalance_exact(
            g.indptr, g.indices, g.data, asg.copy(), k, size
        )
        got = bisect_mod._rebalance_exact(
            g.indptr, g.indices, g.data, asg.copy(), k, size
        )
        assert np.array_equal(got, want)
        assert np.array_equal(np.bincount(got, minlength=k), [size] * k)

    @pytest.mark.parametrize("seed", range(6))
    def test_attraction_rows(self, seed):
        rng = np.random.default_rng([seed, 5])
        n, k = 150, 7
        g = _csr_graph(n, rng, integer=bool(seed % 2))
        asg = rng.integers(0, k, size=n).astype(np.intp)
        for nc in (0, 1, 37, n):
            cand = np.sort(rng.choice(n, size=nc, replace=False)).astype(np.intp)
            want = refine_oracle.attraction_rows(
                g.indptr, g.indices, g.data, asg, k, cand
            )
            got = bisect_mod._attraction_rows(
                g.indptr, g.indices, g.data, asg, k, cand
            )
            assert np.array_equal(got, want)


# -- incremental sweeps ------------------------------------------------------------


def _sparse_ints(n, rng, *, signed):
    """Sparse symmetric integer weights: many exact gain ties. Signed
    weights lean negative: a swap out of a repelling group can gain
    although no row is attracted to the other group, which only the
    bound's negative-entry term admits."""
    lo, hi = (-3, 2) if signed else (1, 4)
    w = rng.integers(lo, hi, size=(n, n)).astype(float)
    w[rng.random((n, n)) < rng.uniform(0.75, 0.97)] = 0.0
    return _sym(np.triu(w, 1))


def _incremental_case(seed):
    """One seeded instance: matrix, groups (maybe over a member subset)."""
    rng = np.random.default_rng([seed, 31])
    p = int(rng.integers(8, 3 * B))
    m = _sparse_ints(p, rng, signed=bool(seed % 2))
    members = np.arange(p)
    if seed % 3 == 0:
        members = rng.choice(p, size=int(rng.integers(4, p + 1)), replace=False)
    n = members.size
    shape = seed % 4
    if shape == 0 and n % 2 == 0:
        sizes = [n // 2, n // 2]
    elif shape == 1:
        sizes = [1] * n
    elif shape == 2:
        sizes = _mixed_sizes(n, rng)
    else:
        sizes = _equal_sizes(n, rng) if n > 2 else [1] * n
    return m, _partition(members, rng, sizes)


def _from_edges(n, edges):
    m = np.zeros((n, n))
    for (i, j), w in edges.items():
        m[i, j] = m[j, i] = w
    return m


#: Row 0 of the first case and row 12 of the second have a 2**53 edge
#: into each group, so their attraction to both groups is 2**53. The
#: exact recheck of a swap with such a row adds a small attraction to
#: 2**53, which rounds away, so the row keeps a positive stored gain
#: through the sweep while neither row of the pair changes. The next
#: sweep a dirty column ties that stored gain exactly: in the first case
#: its index is higher than the stored partner's and it must lose, in
#: the second it is lower and must win, as in a full evaluation.
_BIG = 2.0 ** 53
TIE_CASES = [
    (
        _from_edges(11, {
            (0, 5): _BIG, (0, 6): _BIG, (6, 8): _BIG, (1, 7): 1.0,
            (2, 3): -1.0, (2, 10): -1.0, (3, 4): -1.0, (3, 9): -1.0,
            (4, 7): 2.0, (4, 10): 2.0,
        }),
        [[0, 2, 4, 5, 7], [1, 3, 6, 8, 9, 10]],
    ),
    (
        _from_edges(14, {
            (3, 7): _BIG, (3, 12): _BIG, (8, 12): _BIG, (0, 4): -1.0,
            (1, 11): 2.0, (2, 5): 2.0, (2, 6): 1.0, (2, 9): 1.0,
            (2, 10): -1.0, (4, 10): 1.0, (4, 13): -1.0, (10, 13): -1.0,
        }),
        [[2, 4, 5, 8, 11, 12], [0, 1, 3, 6, 7, 9, 10, 13]],
    ),
]


class TestIncrementalSweeps:
    @pytest.mark.parametrize("seed", range(48))
    def test_sparse_integer_family(self, seed):
        _assert_same_refine(*_incremental_case(seed))

    @pytest.mark.parametrize("case", range(len(TIE_CASES)))
    def test_dirty_column_ties_stored_best(self, case):
        m, groups = TIE_CASES[case]
        stats = _assert_same_refine(m, groups)
        assert stats["sweeps"] >= 2

    def test_family_runs_several_sweeps(self):
        # Clean rows only carry state from one sweep to the next, so the
        # family must run many sweeps after the first.
        sweeps = [
            _assert_same_refine(*_incremental_case(seed))["sweeps"]
            for seed in range(48)
        ]
        assert sum(s >= 3 for s in sweeps) >= 16


# -- the CSR backend ------------------------------------------------------------


def _csr_array(m):
    return sp.csr_array(m)


def _csr_rows(m):
    c = sp.csr_array(m)
    return c.indptr, c.indices, c.data


#: The CSR inputs ``refine_groups`` takes: a scipy matrix, and the
#: canonical ``(indptr, indices, data)`` rows ``split_k`` hands it.
CSR_FORMS = {"csr_array": _csr_array, "rows": _csr_rows}


class TestCsrBackend:
    """The CSR backend against the same oracle, on the same instances.

    Its attraction sums run in stored-entry order rather than the BLAS
    order, so the float kinds (``uniform``, ``signed``) could round
    differently; on these seeds every kind makes the dense choices.
    ``signed`` also keeps the same-group mask covered.
    """

    @pytest.mark.parametrize("form", sorted(CSR_FORMS))
    @pytest.mark.parametrize("kind", sorted(MATRICES))
    @pytest.mark.parametrize("n", ORDERS)
    def test_full_member_set(self, kind, n, form):
        for m, groups in _full_cases(kind, n):
            _assert_same_refine(m, groups, CSR_FORMS[form])

    @pytest.mark.parametrize("form", sorted(CSR_FORMS))
    @pytest.mark.parametrize("kind", sorted(MATRICES))
    @pytest.mark.parametrize("seed", range(4))
    def test_member_subset(self, kind, seed, form):
        for m, groups in _subset_cases(kind, seed):
            _assert_same_refine(m, groups, CSR_FORMS[form])

    @pytest.mark.parametrize("seed", range(48))
    def test_sparse_integer_family(self, seed):
        _assert_same_refine(*_incremental_case(seed), _csr_array)

    @pytest.mark.parametrize("case", range(len(TIE_CASES)))
    def test_dirty_column_ties_stored_best(self, case):
        m, groups = TIE_CASES[case]
        assert _assert_same_refine(m, groups, _csr_rows)["sweeps"] >= 2

    def test_non_canonical_input_is_left_alone(self):
        # Every row lists its entries twice, at half weight, in
        # descending column order: summed on a copy.
        rng = np.random.default_rng(4)
        m = _ring(40, rng)
        counts = 2 * np.count_nonzero(m, axis=1)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        indices = np.concatenate(
            [np.repeat(np.flatnonzero(row)[::-1], 2) for row in m]
        )
        messy = sp.csr_array(
            (m[np.repeat(np.arange(40), counts), indices] / 2, indices, indptr),
            shape=m.shape,
        )
        assert not messy.has_canonical_format
        before = (messy.indptr.copy(), messy.indices.copy(), messy.data.copy())
        groups = _partition(np.arange(40), rng, [10] * 4)
        _assert_same_refine(m, groups, lambda _: messy)
        for a, b in zip(before, (messy.indptr, messy.indices, messy.data)):
            assert np.array_equal(a, b)

    def test_builds_no_square_array(self):
        import tracemalloc

        n, k = 3000, 8
        idx = np.arange(n)
        w = sp.csr_array(
            (np.full(n, 100.0), (idx, (idx + 1) % n)), shape=(n, n)
        )
        aff = sp.csr_array(w + w.T)
        # Contiguous arcs of the ring with their ends exchanged: a few
        # swaps to undo.
        groups = [list(range(g * n // k, (g + 1) * n // k)) for g in range(k)]
        for g in range(k - 1):
            groups[g][-1], groups[g + 1][0] = groups[g + 1][0], groups[g][-1]
        tracemalloc.start()
        try:
            stats = {}
            refine_groups(aff, groups, stats=stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats["swaps"] >= k - 1
        assert peak < n * n * 8 / 10


def _weighted_stencil(n, rng, weights):
    """A label-permuted stencil of order *n* with random edge weights."""
    a = CommunicationMatrix.stencil2d(n, sparse=True).affinity_any()
    upper = sp.triu(a, 1).tocoo()
    e = upper.nnz
    w = {
        "uniform": lambda: rng.uniform(1.0, 100.0, e),
        "lognormal": lambda: rng.lognormal(3.0, 1.0, e),
        "two-decimal": lambda: np.round(rng.uniform(1.0, 100.0, e), 2),
    }[weights]()
    u = sp.coo_array((w, (upper.row, upper.col)), shape=a.shape)
    perm = rng.permutation(n)
    return sp.csr_array(u + u.T)[perm][:, perm]


#: ``(n, k, weights)``: float weights, where the CSR backend's
#: stored-order attraction sums can round unlike the BLAS product.
SPLIT_CASES = [
    (n, k, weights)
    for weights in ("uniform", "lognormal", "two-decimal")
    for n, k in ((3000, 8), (4000, 20), (6000, 40), (9000, 20))
]


class TestSplitKAgainstDensified:
    @pytest.mark.parametrize("n,k,weights", SPLIT_CASES)
    @pytest.mark.parametrize("seed", range(2))
    def test_same_parts(self, n, k, weights, seed):
        rng = np.random.default_rng([n, k, seed, len(weights)])
        aff = _weighted_stencil(n, rng, weights)
        assert bisect_mod.split_k(aff, k) == refine_oracle.split_k_densified(
            aff, k
        )
