"""Differential family: matching and coarsest bisection against their oracle.

``tests/harness/coarsen_oracle.py`` keeps the lexsorted
``heavy_edge_matching`` with its ``np.unique`` numbering, and the dense
recursive bisection that copies each side with ``np.ix_`` and seeds at
the largest ``sub.sum(axis=1)``. The library versions must make the
same choices on every seeded instance: the same ``coarse_of`` (dtype
included), the same ``n_coarse``, the same part of every vertex.

The instances cover the ways the CSR rewrite could drift: uniform
float weights, small integers, weights spread from 1 to 1e15, heavy
ties (only weights 1 and 2, so the matching's tie order decides),
isolated vertices, orders 0, 1 and 2, permuted stencils, whose
coarsening stalls at about 2.7% of their order, far above its target,
and permuted rings, which coarsen all the way. One hand-built graph
has a row whose nonzeros, summed in CSR order, beat the row that
``sub.sum(axis=1)`` ranks first. The families of
:class:`TestMatchingRounds` cover the split of the library's matching
into vectorized rounds and a sequential loop.
"""

import sys

import numpy as np
import pytest
from scipy import sparse as sp

from repro.treematch.bisect import _grow_side, _partition_weighted
from repro.treematch.coarsen import (
    ROUND_MIN_SHARE,
    coarsen,
    csr_parts,
    heavy_edge_matching,
)
from repro.treematch.commmatrix import CommunicationMatrix
from tests.harness import coarsen_oracle


def _sym(upper: np.ndarray) -> np.ndarray:
    m = np.triu(upper, 1)
    return m + m.T


def _uniform(n, rng):
    return _sym(rng.random((n, n)) * (rng.random((n, n)) < 0.2))


def _integers(n, rng):
    return _sym(rng.integers(0, 9, size=(n, n)) * (rng.random((n, n)) < 0.2))


def _wide(n, rng):
    w = np.round(10.0 ** rng.uniform(0.0, 15.0, size=(n, n)))
    return _sym(w * (rng.random((n, n)) < 0.2))


def _ties(n, rng):
    # Dense weights 1 and 2: long runs of equal weights in the edge order.
    return _sym(rng.integers(1, 3, size=(n, n)).astype(float))


def _isolated(n, rng):
    m = _uniform(n, rng)
    lonely = rng.random(n) < 0.3
    m[lonely] = 0.0
    m[:, lonely] = 0.0
    return m


WEIGHTS = {"uniform": _uniform, "integers": _integers, "wide": _wide,
           "ties": _ties, "isolated": _isolated}
ORDERS = (0, 1, 2, 3, 17, 64, 300)


def _permuted(comm: CommunicationMatrix, seed: int):
    """*comm*'s affinity with its task labels permuted."""
    aff = comm.affinity_any()
    perm = np.random.default_rng(seed).permutation(comm.order)
    if hasattr(aff, "tocsr"):
        return aff.tocsr()[perm][:, perm]
    return aff[np.ix_(perm, perm)]


def _ring(n: int) -> CommunicationMatrix:
    return CommunicationMatrix.from_edges(
        n, {(i, (i + 1) % n): 100.0 for i in range(n)}
    )


#: Permuted inputs: heavy-edge matching stalls on the stencils well
#: above the coarsening target, and halves the rings down to it.
PERMUTED = {
    "stencil-6400": lambda: _permuted(CommunicationMatrix.stencil2d(6400), 1),
    "stencil-20000": lambda: _permuted(CommunicationMatrix.stencil2d(20000), 2),
    "ring-3000": lambda: _permuted(_ring(3000), 3),
}


def _assert_same_matching(indptr, indices, data, n):
    want = coarsen_oracle.heavy_edge_matching(indptr, indices, data, n)
    got = heavy_edge_matching(indptr, indices, data, n)
    assert got[0].dtype == want[0].dtype
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]
    return want


def _assert_same_partition(level, k, per_part):
    dense = sp.csr_array(
        (level.data, level.indices, level.indptr), shape=(level.n, level.n)
    ).toarray()
    want = coarsen_oracle.partition_weighted(dense, level.weights, k, per_part)
    got = _partition_weighted(
        level.indptr, level.indices, level.data, level.weights, k, per_part
    )
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestMatchingAgainstOracle:
    @pytest.mark.parametrize("kind", sorted(WEIGHTS))
    @pytest.mark.parametrize("n", ORDERS)
    def test_weight_families(self, kind, n):
        rng = np.random.default_rng([n, sorted(WEIGHTS).index(kind)])
        _assert_same_matching(*csr_parts(WEIGHTS[kind](n, rng)))

    @pytest.mark.parametrize("kind", sorted(WEIGHTS))
    def test_every_coarsening_level(self, kind):
        rng = np.random.default_rng(sorted(WEIGHTS).index(kind) + 100)
        for level in coarsen(WEIGHTS[kind](300, rng), target=4):
            _assert_same_matching(
                level.indptr, level.indices, level.data, level.n
            )

    @pytest.mark.parametrize("name", sorted(PERMUTED))
    def test_permuted_graphs(self, name):
        levels = coarsen(PERMUTED[name](), target=64)
        for level in levels:
            _assert_same_matching(
                level.indptr, level.indices, level.data, level.n
            )


def _path(n: int) -> CommunicationMatrix:
    return CommunicationMatrix.from_edges(
        n, {(i, i + 1): 100.0 for i in range(n - 1)}
    )


def _heavy_pairs(n: int, seed: int) -> np.ndarray:
    """Disjoint pairs (2i, 2i + 1) of weight 10 joined by random edges of
    weight 1: every pair edge is locally dominant, so round 1 matches
    them all and drops every other edge."""
    rng = np.random.default_rng(seed)
    m = np.zeros((n, n))
    ev = np.arange(0, n, 2)
    m[ev, ev + 1] = m[ev + 1, ev] = 10.0
    a, b = rng.integers(0, n, size=(2, 3 * n))
    light = a // 2 != b // 2
    m[a[light], b[light]] = m[b[light], a[light]] = 1.0
    return m


def _float_ties(n: int, seed: int) -> np.ndarray:
    """Sparse random float weights rounded to one decimal: ten distinct
    values, so long runs of exact ties."""
    rng = np.random.default_rng(seed)
    w = np.round(rng.random((n, n)), 1) * (rng.random((n, n)) < 0.03)
    return _sym(w)


#: Inputs for the round structure of the matching. With the default
#: ROUND_MIN_SHARE, the sequential loop runs on every level of the
#: natural-label rings, paths and stencil: their first round matches
#: one edge (the stencil's coarser levels: a few dozen) and the loop
#: takes every other edge. Round 1 matches the heavy pairs' first level
#: completely, the float-tie graphs finish in rounds alone, and orders
#: 0-2 have at most one edge.
ROUND_FAMILIES = {
    "ring-2000": lambda: _ring(2000).affinity_any(),
    "ring-2001": lambda: _ring(2001).affinity_any(),
    "path-2000": lambda: _path(2000).affinity_any(),
    "stencil-2500": lambda: CommunicationMatrix.stencil2d(2500).affinity_any(),
    "heavy-pairs-600": lambda: _heavy_pairs(600, 1),
    "float-ties-600": lambda: _float_ties(600, 2),
    "order-0": lambda: np.zeros((0, 0)),
    "order-1": lambda: np.zeros((1, 1)),
    "order-2": lambda: np.array([[0.0, 1.0], [1.0, 0.0]]),
}


class TestMatchingRounds:
    """Every coarsening level of every round family matches the oracle
    under three round-to-loop switches: the library's, never (rounds
    until no edge is left) and after round 1 whatever it resolved (the
    sequential loop takes the survivors of one round)."""

    @pytest.mark.parametrize("share", [
        pytest.param(ROUND_MIN_SHARE, id="default"),
        pytest.param(0.0, id="rounds-only"),
        pytest.param(2.0, id="loop-after-round-1"),
    ])
    @pytest.mark.parametrize("name", sorted(ROUND_FAMILIES))
    def test_every_level(self, name, share, monkeypatch):
        monkeypatch.setattr(
            sys.modules["repro.treematch.coarsen"], "ROUND_MIN_SHARE", share
        )
        for level in coarsen(ROUND_FAMILIES[name](), target=8):
            _assert_same_matching(
                level.indptr, level.indices, level.data, level.n
            )

    def test_heavy_pairs_match_completely(self):
        m = _heavy_pairs(600, 1)
        coarse_of, n_coarse = heavy_edge_matching(*csr_parts(m))
        assert n_coarse == 300
        assert np.array_equal(coarse_of, np.arange(600) // 2)


class TestPartitionAgainstOracle:
    @pytest.mark.parametrize("kind", sorted(WEIGHTS))
    @pytest.mark.parametrize("n", (2, 3, 17, 64, 300))
    def test_weight_families(self, kind, n):
        rng = np.random.default_rng([n, sorted(WEIGHTS).index(kind), 7])
        level = coarsen(WEIGHTS[kind](n, rng), target=max(1, n // 8))[-1]
        total = int(level.weights.sum())
        for k in (2, 3, 5):
            _assert_same_partition(level, k, max(1, total // k))

    @pytest.mark.parametrize("name", sorted(PERMUTED))
    def test_permuted_coarsest_levels(self, name):
        coarsest = coarsen(PERMUTED[name](), target=64)[-1]
        if name.startswith("stencil"):
            assert coarsest.n > 128  # the stall
        total = int(coarsest.weights.sum())
        for k in (2, 4, 10):
            _assert_same_partition(coarsest, k, total // k)

    def test_edge_free_and_tiny_graphs(self):
        for n in (0, 1, 2, 5):
            level = coarsen(np.zeros((n, n)), target=1)[-1]
            for k in (1, 2, 3):
                _assert_same_partition(level, k, max(1, n // k))


def _pairwise_seed_graph() -> np.ndarray:
    """Row 8's nonzeros summed in CSR order give 1e16 + 2; the dense row
    sum, in numpy's pairwise order, gives 1e16 — which rows 3, 4 and 6
    reach too, so ``sub.sum(axis=1)`` seeds at row 3."""
    m = np.zeros((9, 9))
    for i, j, w in ((1, 8, 1.0), (3, 4, 1e16), (4, 5, 1.0), (5, 8, 1.0),
                    (6, 8, 1e16)):
        m[i, j] = m[j, i] = w
    return m


class TestSeedSummation:
    def test_input_separates_the_two_sums(self):
        m = _pairwise_seed_graph()
        indptr, indices, data, n = csr_parts(m)
        rows = np.repeat(np.arange(n), np.diff(indptr))
        csr_order = np.bincount(rows, weights=data, minlength=n)
        assert int(m.sum(axis=1).argmax()) == 3
        assert int(csr_order.argmax()) == 8

    def test_grow_side_seeds_like_the_dense_sum(self):
        m = _pairwise_seed_graph()
        indptr, indices, data, n = csr_parts(m)
        w = np.ones(n, dtype=np.int64)
        for target in (1, 2, 4, 6):
            want = coarsen_oracle.grow_side(m, w, target)
            assert np.array_equal(
                _grow_side(indptr, indices, data, w, target), want
            )

    def test_partition_matches_oracle(self):
        m = _pairwise_seed_graph()
        level = coarsen(m, target=9)[-1]
        for k, per_part in ((2, 4), (3, 3), (9, 1)):
            _assert_same_partition(level, k, per_part)
