"""Differential family: the copy-free greedy grouping against its oracle.

``tests/harness/greedy_oracle.py`` keeps ``group_greedy`` as it was
when it grouped on a p x p copy of its input with a -inf diagonal. The
library version reads rows of the input in place and must return the
same groups, member order included, on every seeded instance.

``group_greedy`` is exported and takes any finite non-negative square
matrix, so the gallery goes past TreeMatch affinities: uniform floats,
small integers (many exact ties, so argmax tie-breaks show), matrices
with all-zero rows, non-zero diagonals (a diagonal entry that escapes
the -inf treatment wins a row and pairs an element with itself),
asymmetric matrices and sparse 0/1 matrices, at group sizes 1 to 8.
Orders past one row block check the blocked first row maxima. Every
instance also runs through the CSR backend, as a scipy CSR array and
as canonical rows with explicit zeros, and must give the same groups
and member order: float kinds included, since the CSR reads leave out
only ``+ 0.0`` terms.

``TestDenseSparseEquality`` checks the whole dense pipeline: the
dense- and sparse-backed versions of one stencil or ring, with natural
and permuted labels, map to equal placements.
"""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.topology import machine_by_name
from repro.treematch.commmatrix import CommunicationMatrix
from repro.treematch.grouping import group_greedy
from repro.treematch.mapping import _padded_affinity, treematch_map
from repro.util.matrix import row_blocks
from tests.harness import greedy_oracle


def _sym(a: np.ndarray) -> np.ndarray:
    m = a + a.T
    np.fill_diagonal(m, 0.0)
    return m


def _uniform(p, rng):
    return _sym(rng.random((p, p)))


def _ties(p, rng):
    return _sym(rng.integers(0, 3, size=(p, p)).astype(float))


def _zero_rows(p, rng):
    m = _sym(rng.integers(0, 5, size=(p, p)).astype(float))
    dead = rng.random(p) < 0.4
    m[dead] = 0.0
    m[:, dead] = 0.0
    return m


def _diagonal(p, rng):
    m = _uniform(p, rng)
    np.fill_diagonal(m, rng.random(p) * 10.0)
    return m


def _asymmetric(p, rng):
    return np.round(rng.random((p, p)) * 4.0)


def _zero_one(p, rng):
    return (rng.random((p, p)) < 0.15).astype(float)


KINDS = {"uniform": _uniform, "ties": _ties, "zero_rows": _zero_rows,
         "diagonal": _diagonal, "asymmetric": _asymmetric,
         "zero_one": _zero_one}

#: Instances per kind: 6 x 350 = 2,100 in all.
PER_KIND = 350


def _as_backend(m: np.ndarray, backend: str):
    """*m* as the dense array, a scipy CSR array of its nonzeros, or
    canonical CSR rows that also store every zero at ``(i + j) % 3 ==
    0``, diagonal included (explicit zeros, as an input may hold)."""
    if backend == "dense":
        return m
    if backend == "csr_array":
        return sp.csr_array(m)
    i, j = np.indices(m.shape)
    r, c = np.nonzero((m != 0) | ((i + j) % 3 == 0))
    csr = sp.csr_array((m[r, c], (r, c)), shape=m.shape)
    assert csr.has_canonical_format
    return csr.indptr, csr.indices, csr.data


BACKENDS = ("dense", "csr_array", "rows")


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_greedy_matches_oracle_on_gallery(kind):
    make = KINDS[kind]
    rng = np.random.default_rng(sorted(KINDS).index(kind))
    for case in range(PER_KIND):
        arity = int(rng.integers(1, 9))
        p = arity * int(rng.integers(1, 13))
        m = make(p, rng)
        want = greedy_oracle.group_greedy(m, arity)
        for backend in BACKENDS:
            got = group_greedy(_as_backend(m, backend), arity)
            assert got == want, (kind, case, p, arity, backend)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_greedy_matches_oracle_across_row_blocks(kind):
    p = 600
    assert len(row_blocks(p, p)) > 1
    rng = np.random.default_rng(100 + sorted(KINDS).index(kind))
    m = KINDS[kind](p, rng)
    for arity in (2, 5, 24):
        want = greedy_oracle.group_greedy(m, arity)
        for backend in BACKENDS:
            got = group_greedy(_as_backend(m, backend), arity)
            assert got == want, (kind, arity, backend)


def test_greedy_leaves_input_unchanged():
    m = _diagonal(12, np.random.default_rng(7))
    before = m.copy()
    group_greedy(m, 3)
    assert np.array_equal(m, before)


def _ring(n: int, sparse: bool) -> CommunicationMatrix:
    edges = {(i, (i + 1) % n): 100.0 for i in range(n)}
    return CommunicationMatrix.from_edges(n, edges, sparse=sparse)


def _stencil(n: int, sparse: bool) -> CommunicationMatrix:
    return CommunicationMatrix.stencil2d(n, sparse=sparse)


def _relabel(comm: CommunicationMatrix, perm) -> CommunicationMatrix:
    if comm.is_sparse:
        return CommunicationMatrix(comm.tocsr()[perm][:, perm])
    return CommunicationMatrix(comm.raw[np.ix_(perm, perm)])


class TestDenseSparseEquality:
    @pytest.mark.parametrize("n", [300, 1000, 2000])
    @pytest.mark.parametrize("pattern", ["stencil", "ring"])
    @pytest.mark.parametrize("permuted", [False, True])
    def test_backends_map_equally(self, n, pattern, permuted):
        topo = machine_by_name("SMP20E7")
        make = _stencil if pattern == "stencil" else _ring
        dense, sparse = make(n, False), make(n, True)
        assert not dense.is_sparse and sparse.is_sparse
        if permuted:
            perm = np.random.default_rng(n).permutation(n)
            dense, sparse = _relabel(dense, perm), _relabel(sparse, perm)
        assert treematch_map(topo, dense) == treematch_map(topo, sparse)


def _csr_first_level(rng, weights):
    """A random CSR first level as ``treematch_map`` builds it: the
    affinity of n tasks, the CONTROL_EPSILON edges of some control
    slots, and empty padding rows up to a multiple of the arity."""
    arity = int(rng.integers(2, 9))
    lv = arity * int(rng.integers(2, 13))
    n = int(rng.integers(2, lv + 1))
    owners = rng.integers(0, n, size=int(rng.integers(0, lv - n + 1)))
    if weights == "float":
        w = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    elif weights == "ties":
        w = rng.integers(0, 3, size=(n, n)).astype(float)
    else:  # sparse 0/1: many grow steps find no attracted free column
        w = (rng.random((n, n)) < 2.0 / n).astype(float)
    comm = CommunicationMatrix(sp.csr_array(w), sparse=True)
    return _padded_affinity(comm, lv, owners.tolist()), arity


class TestCsrFirstLevels:
    """The CSR backend on the first levels ``treematch_map`` builds:
    control-slot edges, padding rows, and relabelled stencils and rings.
    Its groups and member order must be the dense oracle's."""

    @pytest.mark.parametrize("weights", ["float", "ties", "sparse"])
    def test_first_levels_match_oracle(self, weights):
        rng = np.random.default_rng(["float", "ties", "sparse"].index(weights))
        for case in range(200):
            m, arity = _csr_first_level(rng, weights)
            dense = m.toarray()
            want = greedy_oracle.group_greedy(dense, arity)
            # As built (no explicit zeros), and with explicit zeros.
            for backend in ("csr_array", "rows"):
                got = group_greedy(_as_backend(dense, backend), arity)
                assert got == want, (weights, case, backend)
            assert group_greedy(m, arity) == want

    @pytest.mark.parametrize("pattern", ["stencil", "ring"])
    def test_relabelled_level_zero_matches_oracle(self, pattern):
        # One group per SMP20E7 core, as at level 0 of a 3,200-task map.
        n = 3200
        perm = np.random.default_rng(1).permutation(n)
        comm = _relabel(_stencil(n, True) if pattern == "stencil"
                        else _ring(n, True), perm)
        aff = comm.affinity_any()
        assert group_greedy(aff, 20) == greedy_oracle.group_greedy(
            aff.toarray(), 20
        )
