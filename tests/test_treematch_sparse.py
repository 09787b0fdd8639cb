"""CSR-vs-dense equivalence of the CommunicationMatrix backends.

The sparse backend must be a drop-in: every operation the mapping
pipeline runs — affinity, aggregation, submatrices, the padded first
level, mapping — has to agree with the dense reference *bit for bit*,
not approximately. The test matrices are integer-valued, so any
summation order yields the same float.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.errors import MappingError
from repro.topology import ObjType, TopoObject, Topology, machine_by_name
from repro.treematch.aggregate import aggregate_comm_matrix
from repro.treematch.coarsen import take_submatrix
from repro.treematch.commmatrix import (
    SPARSE_AUTO_ORDER,
    CommunicationMatrix,
    check_affinity,
)
from repro.treematch.mapping import Placement, _padded_affinity, treematch_map


def int_matrix(n: int, seed: int, density: float = 0.2) -> np.ndarray:
    """Random integer-valued traffic matrix (not necessarily symmetric)."""
    rng = np.random.default_rng(seed)
    m = rng.integers(1, 100, size=(n, n)).astype(np.float64)
    m[rng.random((n, n)) >= density] = 0.0
    np.fill_diagonal(m, 0.0)
    return m


def pair(m: np.ndarray) -> tuple[CommunicationMatrix, CommunicationMatrix]:
    return (
        CommunicationMatrix(m, sparse=False),
        CommunicationMatrix(m, sparse=True),
    )


def random_partition(n: int, k: int, seed: int) -> list[list[int]]:
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    bounds = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    return [
        sorted(int(x) for x in part)
        for part in np.split(perm, bounds)
    ]


class TestBackendSelection:
    def test_explicit_flags(self):
        m = int_matrix(16, 0)
        dense, sparse = pair(m)
        assert not dense.is_sparse
        assert sparse.is_sparse
        assert sparse.nnz == int(np.count_nonzero(m))

    def test_sparse_input_densified_on_request(self):
        csr = sp.csr_array(int_matrix(8, 1))
        comm = CommunicationMatrix(csr, sparse=False)
        assert not comm.is_sparse

    def test_auto_is_dense_below_order_cutoff(self):
        comm = CommunicationMatrix.stencil2d(SPARSE_AUTO_ORDER - 1)
        assert not comm.is_sparse

    def test_auto_is_sparse_for_large_low_density(self):
        comm = CommunicationMatrix.stencil2d(SPARSE_AUTO_ORDER)
        assert comm.is_sparse

    def test_from_edges_validation_matches_dense(self):
        for kwargs in ({"sparse": True}, {"sparse": False}):
            with pytest.raises(MappingError, match="outside order"):
                CommunicationMatrix.from_edges(2, {(0, 5): 1.0}, **kwargs)
            with pytest.raises(MappingError, match="negative traffic"):
                CommunicationMatrix.from_edges(2, {(0, 1): -1.0}, **kwargs)

    def test_negative_entries_rejected(self):
        m = np.array([[0.0, -1.0], [0.0, 0.0]])
        with pytest.raises((MappingError, ValueError)):
            CommunicationMatrix(m, sparse=True)
        with pytest.raises(MappingError):
            CommunicationMatrix(sp.csr_array(m), sparse=True)

    @pytest.mark.parametrize("backend", ["dense", "csr"])
    @pytest.mark.parametrize("bad,message", [
        (np.array([[0.0, np.nan], [np.nan, 0.0]]), "non-finite"),
        (np.array([[0.0, -1.0], [-1.0, 0.0]]), "negative"),
        (np.zeros((2, 3)), "square 2-D"),
        (np.array([[0, 1 + 2j], [1 + 2j, 0]]), "complex"),
    ], ids=["nan", "negative", "non-square", "complex"])
    def test_malformed_raises_mapping_error(self, backend, bad, message):
        data = bad if backend == "dense" else sp.csr_array(bad)
        with pytest.raises(MappingError, match=message):
            CommunicationMatrix(data)


class TestBitForBitEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000), st.integers(6, 64))
    def test_affinity_and_views_random(self, seed, n):
        m = int_matrix(n, seed)
        dense, sparse = pair(m)
        assert np.array_equal(dense.raw, sparse.raw)
        assert np.array_equal(dense.affinity(), sparse.affinity())
        assert np.array_equal(
            dense.affinity(), sparse.affinity_any().toarray()
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000), st.integers(8, 64))
    def test_placement_cost_random(self, seed, n):
        """Both placement objectives give one float on either backend:
        integer traffic times integer distances sums exactly in any
        order."""
        dense, sparse = pair(int_matrix(n, seed))
        topo = machine_by_name("SMP12E5-4S")
        pus = [pu.os_index for pu in topo.pus]
        rng = np.random.default_rng(seed + 2)
        # Leave some threads unbound; several may share a PU.
        placement = Placement(thread_to_pu={
            i: pus[int(j)]
            for i, j in enumerate(rng.integers(0, len(pus), size=n))
            if rng.random() < 0.8
        })
        assert placement.cost(topo, dense) == placement.cost(topo, sparse)
        assert placement.slit_cost(topo, dense) == placement.slit_cost(
            topo, sparse
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000), st.integers(8, 64), st.integers(2, 6))
    def test_aggregate_random(self, seed, n, k):
        m = int_matrix(n, seed)
        groups = random_partition(n, k, seed + 3)
        a_dense = aggregate_comm_matrix(m, groups)
        a_sparse = aggregate_comm_matrix(sp.csr_array(m), groups)
        assert np.array_equal(a_dense, a_sparse)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 400))
    def test_stencil_both_backends(self, n):
        dense = CommunicationMatrix.stencil2d(n, sparse=False)
        sparse = CommunicationMatrix.stencil2d(n, sparse=True)
        assert np.array_equal(dense.raw, sparse.raw)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 1000))
    def test_from_edges_both_backends(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 64))
        edges = {
            (int(rng.integers(0, n)), int(rng.integers(0, n))):
                float(rng.integers(1, 100))
            for _ in range(n * 2)
        }
        edges = {
            (i, j): w for (i, j), w in edges.items() if i != j
        }
        dense = CommunicationMatrix.from_edges(n, edges, sparse=False)
        sparse = CommunicationMatrix.from_edges(n, edges, sparse=True)
        assert np.array_equal(dense.raw, sparse.raw)


class TestSparseRoundtrips:
    def test_tocsr_of_dense(self):
        m = int_matrix(10, 5)
        dense = CommunicationMatrix(m, sparse=False)
        assert np.array_equal(dense.tocsr().toarray(), m)

    def test_default_labels_lazy(self):
        comm = CommunicationMatrix.stencil2d(5000, sparse=True)
        assert comm.labels[0] == "t0"
        assert comm.labels[4999] == "t4999"
        assert len(comm.labels) == 5000


def _messy_csr(*, symmetric=False):
    """3x3 CSR whose row 0 lists column 1 twice, after column 2; with
    *symmetric*, rows 1 and 2 mirror row 0's sums."""
    if symmetric:
        data, indices, indptr = [1.0, 2.0, 3.0, 5.0, 1.0], [2, 1, 1, 0, 0], [
            0, 3, 4, 5]
    else:
        data, indices, indptr = [1.0, 2.0, 3.0], [2, 1, 1], [0, 3, 3, 3]
    return sp.csr_array(
        (np.array(data), np.array(indices), np.array(indptr)), shape=(3, 3)
    )


class TestCallerMatrixUntouched:
    """Checking or wrapping a CSR never rewrites the caller's arrays."""

    def test_constructor_leaves_non_canonical_input_alone(self):
        m = _messy_csr()
        comm = CommunicationMatrix(m)
        assert m.indices.tolist() == [2, 1, 1]
        assert m.data.tolist() == [1.0, 2.0, 3.0]
        assert comm.raw[0].tolist() == [0.0, 5.0, 1.0]

    def test_constructor_owns_its_arrays(self):
        m = sp.csr_array(int_matrix(6, 1))
        comm = CommunicationMatrix(m)
        want = comm.raw
        m.data[:] = 99.0
        assert np.array_equal(comm.raw, want)

    def test_check_affinity_leaves_input_alone(self):
        m = _messy_csr(symmetric=True)
        a = check_affinity(m)
        assert a.has_canonical_format
        assert a.toarray().tolist() == [[0, 5, 1], [5, 0, 0], [1, 0, 0]]
        assert m.indices.tolist() == [2, 1, 1, 0, 0]
        assert m.data.tolist() == [1.0, 2.0, 3.0, 5.0, 1.0]

    def test_canonical_input_is_not_copied_by_the_check(self):
        m = sp.csr_array(int_matrix(6, 2) + int_matrix(6, 2).T)
        assert np.shares_memory(check_affinity(m).data, m.data)


class TestTakeSubmatrix:
    """One gather of the stored entries gives the matrix of scipy's two
    fancy-index passes, canonical, with new ids numbered in *idx*
    order."""

    @pytest.mark.parametrize("cls", ["csr_array", "csr_matrix"])
    @pytest.mark.parametrize("itype", [np.int32, np.int64])
    @pytest.mark.parametrize("order", ["sorted", "shuffled"])
    def test_matches_fancy_indexing(self, cls, itype, order):
        rng = np.random.default_rng([len(cls), np.dtype(itype).itemsize])
        m = int_matrix(60, 3)
        c = sp.csr_array(m)
        mat = getattr(sp, cls)(
            (c.data, c.indices.astype(itype), c.indptr.astype(itype)),
            shape=c.shape,
        )
        idx = np.sort(rng.choice(60, size=25, replace=False))
        if order == "shuffled":
            idx = rng.permutation(idx)
        got = take_submatrix(mat, idx)
        want = mat[idx][:, idx]
        assert type(got) is type(want)
        assert got.has_canonical_format
        # scipy leaves a shuffled idx's rows unsorted; sorting them
        # gives the same arrays.
        want.sort_indices()
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert np.array_equal(got.toarray(), m[np.ix_(idx, idx)])

    def test_empty_and_repeated_indices(self):
        mat = sp.csr_array(int_matrix(8, 4))
        assert take_submatrix(mat, np.array([], dtype=np.intp)).shape == (0, 0)
        with pytest.raises(MappingError, match="repeat"):
            take_submatrix(mat, np.array([1, 2, 1]))


def _symmetrizer_input(n, seed, *, diagonal, empty_rows, zeros):
    """A canonical CSR of random float traffic, with stored diagonal
    entries, rows and columns with no entry, and stored explicit zeros
    (some facing a stored entry, some alone) as asked."""
    rng = np.random.default_rng(seed)
    w = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    if not diagonal:
        np.fill_diagonal(w, 0.0)
    if empty_rows:
        dead = rng.random(n) < 0.3
        w[dead] = 0.0
        w[:, dead] = 0.0
    stored = w != 0
    if zeros:
        stored |= rng.random((n, n)) < 0.1
    r, c = np.nonzero(stored)
    return sp.csr_array((w[r, c], (r, c)), shape=(n, n))


class TestSymmetrizer:
    """``_sym_zero_diag_csr`` masks the stored diagonal out of ``m +
    m.T`` in place; it must build what the COO round trip it replaced
    built, array for array.

    A ``csr_matrix`` is read as the ``csr_array`` of its arrays, so the
    reference reads that array too: summing a ``csr_matrix`` with int64
    indices, scipy checks the contents of an ``np.empty`` index buffer
    and returns int32 or int64 indices depending on what memory it got.
    """

    @pytest.mark.parametrize("cls", ["csr_array", "csr_matrix"])
    @pytest.mark.parametrize("itype", [np.int32, np.int64])
    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("empty_rows", [False, True])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_matches_coo_round_trip(self, cls, itype, diagonal, empty_rows,
                                    zeros):
        from repro.treematch.commmatrix import _sym_zero_diag_csr
        from tests.harness.cost_oracle import sym_zero_diag_coo

        for n, seed in ((1, 0), (7, 1), (60, 2)):
            c = _symmetrizer_input(n, seed, diagonal=diagonal,
                                   empty_rows=empty_rows, zeros=zeros)
            m = getattr(sp, cls)(c)
            # Set after construction: csr_matrix would narrow int64.
            m.indices, m.indptr = c.indices.astype(itype), c.indptr.astype(itype)
            assert m.has_canonical_format and m.indices.dtype == itype
            got = _sym_zero_diag_csr(m)
            want = sym_zero_diag_coo(sp.csr_array(m))
            assert type(got) is type(want)
            assert got.shape == want.shape and got.has_canonical_format
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_matches_on_the_map_inputs(self):
        # Relabelled as the map benchmark does; scipy leaves the
        # relabelled rows unsorted, so the input is not canonical.
        from repro.treematch.commmatrix import _sym_zero_diag_csr
        from tests.harness.cost_oracle import sym_zero_diag_coo

        perm = np.random.default_rng(1).permutation(20_000)
        for comm in (CommunicationMatrix.stencil2d(20_000),
                     CommunicationMatrix.ring(20_000)):
            m = comm.tocsr()[perm][:, perm]
            got, want = _sym_zero_diag_csr(m), sym_zero_diag_coo(m)
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name


def _flat_machine(cores: int) -> Topology:
    """*cores* two-PU cores straight under the root. Mapped one thread
    per core, the root's level is the only one, so the first level
    groups at the root."""
    root = TopoObject(ObjType.MACHINE, name="flat")
    for c in range(cores):
        core = root.add_child(TopoObject(ObjType.CORE))
        for t in range(2):
            core.add_child(TopoObject(ObjType.PU, os_index=2 * c + t))
    return Topology(root, name=f"flat{cores}")


def _machine(name: str) -> Topology:
    if name.startswith("flat"):
        return _flat_machine(int(name[4:]))
    return machine_by_name(name)


#: ``id: (machine, order, treematch_map keywords)``. Each first level
#: groups more than one thread per group, except at the flat root.
MAP_CASES = {
    "pu-pairs": ("SMP12E5", 180, {"hyperthread_aware": False}),
    "spare-core": ("SMP12E5", 100,
                   {"hyperthread_aware": False, "n_control": 60}),
    "spare-core-owners": ("SMP12E5-4S", 40, {
        "hyperthread_aware": False, "n_control": 24,
        "control_owners": [(7 * j) % 40 for j in range(24)]}),
    "oversubscribed": ("SMP20E7", 900, {}),
    "oversubscribed-ht": ("SMP12E5", 500, {}),
    "greedy": ("SMP12E5-4S", 300, {"engine": "greedy"}),
    "no-refine": ("SMP20E7", 700, {"refine": False}),
    "greedy-no-refine": ("SMP12E5-4S", 250,
                         {"engine": "greedy", "refine": False}),
    "flat-root": ("flat6", 6, {"distance_aware": False}),
    "flat-root-padded": ("flat6", 5, {"distance_aware": False}),
    "flat-root-pair": ("flat2", 2, {}),
}


def _sparse_traffic(n: int, seed: int, weights: str = "int") -> np.ndarray:
    """About six partners per thread; integer weights 1-99, or floats."""
    rng = np.random.default_rng(seed)
    if weights == "int":
        m = rng.integers(1, 100, size=(n, n)).astype(np.float64)
    elif weights == "uniform":
        m = rng.uniform(0.5, 100.0, size=(n, n))
    else:
        m = rng.lognormal(3.0, 1.0, size=(n, n))
    m[rng.random((n, n)) >= min(1.0, 6.0 / n)] = 0.0
    np.fill_diagonal(m, 0.0)
    return m


class TestTreematchMapBackends:
    """``treematch_map`` groups a CSR-backed matrix on its CSR rows and
    must place it as it places the dense matrix: the greedy engine makes
    the dense choices on any weights, and on integer weights the
    refinement and the aggregates compute the dense bits."""

    @pytest.mark.parametrize("traffic", ["int", "zero"])
    @pytest.mark.parametrize("owners", [[], [3, 0, 3, 9]])
    def test_first_level_matrix_matches_dense(self, traffic, owners):
        """The CSR first level stores the dense one's entries: the
        affinity, the control edges at the same positions with the same
        epsilon (scaled by the heaviest affinity, or by 1 with no
        traffic), and empty padding rows."""
        n, lv = 10, 16
        m = _sparse_traffic(n, 4) if traffic == "int" else np.zeros((n, n))
        dense, sparse = pair(m)
        want = _padded_affinity(dense, lv, owners)
        got = _padded_affinity(sparse, lv, owners)
        assert sp.issparse(got) and got.has_canonical_format
        assert np.array_equal(got.toarray(), want)
        assert got.nnz == np.count_nonzero(want)

    @pytest.mark.parametrize("case", sorted(MAP_CASES))
    @pytest.mark.parametrize("seed", range(3))
    def test_integer_weights_map_equally(self, case, seed):
        machine, n, kwargs = MAP_CASES[case]
        topo = _machine(machine)
        dense, sparse = pair(_sparse_traffic(n, seed))
        assert sparse.is_sparse and not dense.is_sparse
        stats = [{}, {}]
        want = treematch_map(topo, dense, refine_stats=stats[0], **kwargs)
        got = treematch_map(topo, sparse, refine_stats=stats[1], **kwargs)
        assert got == want
        assert stats[0] == stats[1]

    @pytest.mark.parametrize("machine, n", [("SMP20E7", 500),
                                            ("SMP12E5", 150)])
    @pytest.mark.parametrize("seed", range(3))
    def test_warm_start_maps_equally(self, machine, n, seed):
        topo = machine_by_name(machine)
        kwargs = {"hyperthread_aware": machine != "SMP12E5"}
        prior = treematch_map(
            topo, CommunicationMatrix(_sparse_traffic(n, seed + 100)), **kwargs
        )
        dense, sparse = pair(_sparse_traffic(n, seed))
        stats = [{}, {}]
        want = treematch_map(topo, dense, warm_start=prior,
                             refine_stats=stats[0], **kwargs)
        got = treematch_map(topo, sparse, warm_start=prior,
                            refine_stats=stats[1], **kwargs)
        assert got == want
        assert stats[0] == stats[1] and stats[0]["swaps"] > 0

    @pytest.mark.parametrize("weights", ["uniform", "lognormal"])
    @pytest.mark.parametrize("machine, n, kwargs", [
        ("SMP20E7", 700, {}),
        ("SMP12E5", 180, {"hyperthread_aware": False}),
        ("SMP12E5", 100, {"hyperthread_aware": False, "n_control": 60}),
    ])
    def test_float_weights_map_equally(self, weights, machine, n, kwargs):
        """On float weights the CSR refinement and first aggregate sum in
        stored-entry order, not BLAS order, so a near-tie could resolve
        differently; none of these 48 instances does."""
        topo = machine_by_name(machine)
        for seed in range(8):
            dense, sparse = pair(_sparse_traffic(n, seed, weights))
            want = treematch_map(topo, dense, **kwargs)
            assert treematch_map(topo, sparse, **kwargs) == want, seed

    def test_csr_stencil_builds_no_leaf_order_matrix(self):
        """4,096 tasks on SMP20E7 pad to lv = 4,160 virtual leaves; one
        lv x lv float64 matrix is 138 MB. The CSR first level and the
        refinement's lv x 160 arrays peak near 0.2 of it."""
        import tracemalloc

        lv = 4160
        comm = CommunicationMatrix.stencil2d(4096)
        assert comm.is_sparse
        tracemalloc.start()
        try:
            pl = treematch_map(machine_by_name("SMP20E7"), comm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(pl.thread_to_pu) == list(range(4096))
        assert peak < 0.3 * lv * lv * 8
